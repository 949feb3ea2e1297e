(** Static schedule tables for transparent FT-CPGs.

    The conditional scheduler ({!Conditional}) builds one track per
    complete fault scenario, which caps the scenario spaces it can ever
    express at {!Conditional.track_cap}. A {e fully transparent} application
    — every process and message frozen — needs none of that: frozen
    vertices start at the same time in every scenario by definition
    (the paper's Sec. 3.3 trade-off), so the whole table is one
    scenario-independent schedule whose entries all carry the true
    guard, and it can be compiled directly from the FT-CPG without
    enumerating a single scenario.

    That is exactly the regime where the scenario space is
    combinatorially huge (every recovery chain contributes its slots
    to [C(n, k)]) and where symbolic validation ({!Ftes_sim.Symbolic})
    shines: the table produced here validates in a handful of cubes at
    any [k], while the explicit arena would not even fit in memory.

    Entries are placed ASAP in a deterministic Kahn topological order:
    executions on their node lanes, bus transmissions on the
    {!Lane} bus layout (TDMA-aware), and one condition broadcast per
    conditional vertex after its completion (mirroring the conditional
    scheduler's broadcast placement) so the distributed-knowledge
    checks hold on multi-node platforms. Worst-case (all-fault) chain
    lengths are scheduled unconditionally — the transparency cost the
    paper quantifies. *)

exception Not_transparent of string
(** Raised (naming the vertex) when some vertex is not frozen — the
    application is not fully transparent, so a static table would be
    incorrect; use {!Conditional.schedule}. *)

val schedule : Ftes_ftcpg.Ftcpg.t -> Table.t
(** Compile the static table; broadcasts take {!Conditional.cond_size}
    on the bus, as in the conditional scheduler. The result has a single
    pseudo-track carrying the static makespan, so
    {!Table.schedule_length} and the corpus digests work unchanged. *)
