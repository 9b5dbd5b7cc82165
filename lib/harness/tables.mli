(** The paper's tables and figures that do not come from the bench
    sweep document: the RTL walkthroughs (Tables 1 and 2), the test set
    (Table 3), the Figure 1/2 scenarios and four ablations.  Tables 4-6
    and the section 5.2 statistics are rendered by [Report] over the
    sweep.

    Absolute values differ from the 1992 testbed (different substrate,
    reimplemented utilities); the comparisons SIMPLE vs LOOPS vs JUMPS are
    internal and reproduce the paper's claims. *)

(** Table 1: exit condition in the middle of a loop — RTL before/after
    generalized replication (68020-style model). *)
val table1 : Format.formatter -> unit

(** Table 2: if-then-else with separately replicated returns. *)
val table2 : Format.formatter -> unit

(** Table 3: the test set. *)
val table3 : Format.formatter -> unit

(** Figure 1 and Figure 2 scenarios on synthetic control flow. *)
val figures : Format.formatter -> unit

(** §6 extension: sweep of the replication-sequence length cap. *)
val ablation_cap : Format.formatter -> unit

(** Step-2 heuristic ablation: favoring returns vs favoring loops vs
    whichever is shorter. *)
val ablation_heuristic : Format.formatter -> unit

(** Extension: does associativity rescue the small-cache JUMPS penalty?
    (The paper's caches are direct-mapped; this sweeps 1/2/4-way at 1 KiB.) *)
val ablation_assoc : Format.formatter -> unit

(** Ablation (paper section 3.3): how much of the replication benefit depends
    on the cleanup optimizations it creates opportunities for — CSE,
    code motion, strength reduction, and instruction selection are switched
    off one family at a time. *)
val ablation_passes : Format.formatter -> unit
