(* CLOCK_MONOTONIC through bechamel's unboxed, noalloc stub: nanosecond
   resolution, never stepped by NTP or the administrator, and no state
   shared between domains. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ns_to_s ns = float_of_int ns /. 1e9

let elapsed_s ~since_ns = ns_to_s (now_ns () - since_ns)

let wall_stamp_ns () = int_of_float (Unix.gettimeofday () *. 1e9)
