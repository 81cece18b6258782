(** The paper's quantitative bounds, as executable formulas.

    Experiments and tests compare measured values against these; they
    are kept in one module so every constant in the paper appears in
    exactly one place. *)

(** {2 Theorem 2.1 — Prune under adversarial faults} *)

val thm21_max_faults : alpha:float -> n:int -> k:float -> int
(** Largest f satisfying the hypothesis k·f/α <= n/4, i.e.
    floor(α·n / (4k)). *)

val thm21_min_kept : alpha:float -> n:int -> k:float -> f:int -> float
(** Guaranteed surviving size n - k·f/α. *)

val thm21_expansion : alpha:float -> k:float -> float
(** Guaranteed expansion (1 - 1/k)·α. *)

val thm21_epsilon : k:float -> float
(** The ε = 1 - 1/k passed to Prune. *)

(** {2 Theorem 2.3 — tightness via the chain graph} *)

val thm23_component_bound : delta:int -> k:int -> int
(** Post-attack component size bound δ·k/2 + 1 (each fragment is a
    node with its half-chains). *)

(** {2 Theorem 3.1 — random faults on the chain graph} *)

val thm31_fault_probability : delta:int -> k:int -> float
(** p = 4·ln δ / k used in the proof. *)

(** {2 Theorem 3.4 — Prune2 under random faults} *)

val thm34_max_fault_probability : delta:int -> sigma:float -> float
(** p <= 1 / (2e·δ^{4σ}). *)

val thm34_max_epsilon : delta:int -> float
(** ε <= 1/(2δ). *)

val thm34_guaranteed_size : n:int -> float
(** n/2. *)

(** {2 Theorem 3.6 — span of the mesh} *)

val thm36_mesh_span : float
(** 2. *)

val mesh_fault_budget : d:int -> float
(** The fault probability a d-dimensional mesh tolerates by Theorems
    3.4 + 3.6: 1/(2e·(2d)^8) — "inversely polynomial in d". *)
