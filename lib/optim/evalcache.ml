(* Lock-striped memoization of [Slack.estimate] keyed by a canonical
   design signature. See evalcache.mli for the contract. *)

module Problem = Ftes_ftcpg.Problem
module Mapping = Ftes_ftcpg.Mapping
module Policy = Ftes_app.Policy
module Graph = Ftes_app.Graph
module Slack = Ftes_sched.Slack
module Telemetry = Ftes_util.Telemetry

(* Process-wide telemetry counters mirroring the per-cache [stats]
   record (test_telemetry pins that the two agree for a single cache).
   Registration is free; the increments are gated on the telemetry
   switch inside [Telemetry.incr]. *)
let c_hits = Telemetry.counter "evalcache.hits"
let c_misses = Telemetry.counter "evalcache.misses"
let c_inserts = Telemetry.counter "evalcache.inserts"
let c_bypasses = Telemetry.counter "evalcache.bypasses"

type stats = {
  lookups : int;
  hits : int;
  misses : int;
  inserts : int;
  bypasses : int;
  entries : int;
}

type shard = {
  lock : Mutex.t;
  table : (string, Slack.result) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
}

type t = {
  shards : shard array;
  (* The first problem evaluated pins the universe (application,
     architecture, WCET table — everything the signature does not
     encode); foreign problems bypass the cache. *)
  universe : Problem.t option Atomic.t;
  bypasses : int Atomic.t;
}

(* Lock stripes. One search stores a few thousand entries at most, so
   nothing is ever evicted; the stripes only keep the portfolio's
   domains from queueing on one lock. *)
let stripes = 16

let create () =
  {
    shards =
      Array.init stripes (fun _ ->
          {
            lock = Mutex.create ();
            table = Hashtbl.create 64;
            hits = 0;
            misses = 0;
            inserts = 0;
          });
    universe = Atomic.make None;
    bypasses = Atomic.make 0;
  }

(* Self-delimiting integer: one byte for the common case (counts,
   recoveries, node ids — all tiny), 0xff + 4 little-endian bytes
   otherwise. Keeps the signature allocation-free apart from the buffer
   itself (no [string_of_int], no intermediate lists). *)
let add_int buf v =
  if v >= 0 && v < 0xff then Buffer.add_char buf (Char.unsafe_chr v)
  else begin
    Buffer.add_char buf '\xff';
    Buffer.add_int32_le buf (Int32.of_int v)
  end

let signature ?(ft = true) (p : Problem.t) =
  let buf = Buffer.create 256 in
  Buffer.add_char buf (if ft then 'F' else 'f');
  add_int buf p.Problem.k;
  let n = Graph.process_count (Problem.graph p) in
  for pid = 0 to n - 1 do
    let copies = p.Problem.policies.(pid).Policy.copies in
    add_int buf (Array.length copies);
    Array.iter
      (fun (plan : Policy.copy_plan) ->
        add_int buf plan.Policy.recoveries;
        add_int buf plan.Policy.checkpoints)
      copies;
    let m = Mapping.copy_count p.Problem.mapping ~pid in
    add_int buf m;
    for copy = 0 to m - 1 do
      add_int buf (Mapping.node_of p.Problem.mapping ~pid ~copy)
    done
  done;
  Buffer.contents buf

(* FNV-1a over the signature bytes, folded into OCaml's native int
   range (the offset basis is the standard 64-bit one truncated to fit a
   63-bit literal; the multiply wraps mod 2^63, which preserves the
   mixing behaviour). *)
let signature_hash key =
  let h = ref 0x3f29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    key;
  !h land max_int

let same_universe (u : Problem.t) (p : Problem.t) =
  u.Problem.app == p.Problem.app
  && u.Problem.arch == p.Problem.arch
  && u.Problem.wcet == p.Problem.wcet

let rec claim_universe t p =
  match Atomic.get t.universe with
  | Some u -> same_universe u p
  | None ->
      if Atomic.compare_and_set t.universe None (Some p) then true
      else claim_universe t p

let evaluate ?(ft = true) t (p : Problem.t) =
  if not (claim_universe t p) then begin
    Atomic.incr t.bypasses;
    Telemetry.incr c_bypasses;
    Slack.estimate ~ft p
  end
  else begin
    let key = signature ~ft p in
    let shard = t.shards.(signature_hash key mod Array.length t.shards) in
    Mutex.lock shard.lock;
    let cached = Hashtbl.find_opt shard.table key in
    (match cached with
    | Some _ -> shard.hits <- shard.hits + 1
    | None -> shard.misses <- shard.misses + 1);
    Mutex.unlock shard.lock;
    (match cached with
    | Some _ -> Telemetry.incr c_hits
    | None -> Telemetry.incr c_misses);
    match cached with
    | Some r -> r
    | None ->
        (* Evaluate outside the lock: two domains may race on the same
           fresh signature and both evaluate, but the function is pure,
           so whichever insert wins stores the identical result. *)
        let r = Slack.estimate ~ft p in
        Mutex.lock shard.lock;
        if not (Hashtbl.mem shard.table key) then begin
          Hashtbl.add shard.table key r;
          shard.inserts <- shard.inserts + 1;
          Telemetry.incr c_inserts
        end;
        Mutex.unlock shard.lock;
        r
  end

let length ?ft t p = (evaluate ?ft t p).Slack.length

let stats t =
  let acc =
    Array.fold_left
      (fun (acc : stats) s ->
        Mutex.lock s.lock;
        let acc =
          {
            acc with
            hits = acc.hits + s.hits;
            misses = acc.misses + s.misses;
            inserts = acc.inserts + s.inserts;
            entries = acc.entries + Hashtbl.length s.table;
          }
        in
        Mutex.unlock s.lock;
        acc)
      {
        lookups = 0;
        hits = 0;
        misses = 0;
        inserts = 0;
        bypasses = Atomic.get t.bypasses;
        entries = 0;
      }
      t.shards
  in
  { acc with lookups = acc.hits + acc.misses }

let hit_rate s =
  if s.lookups = 0 then 0. else float_of_int s.hits /. float_of_int s.lookups

let clear t =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      Hashtbl.reset s.table;
      s.hits <- 0;
      s.misses <- 0;
      s.inserts <- 0;
      Mutex.unlock s.lock)
    t.shards;
  Atomic.set t.bypasses 0;
  Atomic.set t.universe None

let pp_stats ppf s =
  Format.fprintf ppf
    "%d lookups: %d hits (%.1f%%), %d misses; %d inserts, %d bypasses, %d \
     entries"
    s.lookups s.hits
    (hit_rate s *. 100.)
    s.misses s.inserts s.bypasses s.entries
