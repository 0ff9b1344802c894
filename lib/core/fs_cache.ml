(* Mount-level extent/attr cache (policy only — no I/O).

   The cache keeps two tables per mount: [ino → fentry] (size, extent
   locations and the mem gates wrapping their capabilities) and
   [path → stat]. Entries expire after a TTL and are evicted under
   capacity pressure by an importance score — hit count decayed by
   idle time — so a hot file's extents survive while one-shot opens
   age out. All decisions are driven by the caller-supplied simulated
   clock, which keeps runs deterministic.

   Coherence bookkeeping lives here too: the per-session notification
   sequence number (a gap means the service dropped a notification
   and the whole mount must be flushed conservatively) and the cache
   generation, bumped on each such flush. *)

type extent = { x_foff : int; x_len : int; x_gate : Gate.mem_gate }

type fentry = {
  fe_ino : int;
  mutable fe_size : int;
  mutable fe_extents : extent list;  (* prefix of the file, in order *)
  mutable fe_fetched : int;  (* server-side index of the next extent *)
  mutable fe_alloc_end : int;  (* bytes allocated (≥ size for writers) *)
  mutable fe_valid : bool;  (* false: size must be revalidated first *)
  mutable fe_hits : int;
  mutable fe_stamp : int;
  mutable fe_expire : int;
}

type sentry = {
  mutable se_stat : Fs_proto.stat;
  mutable se_hits : int;
  mutable se_stamp : int;
  mutable se_expire : int;
}

let ttl = 50_000_000 (* cycles an untouched entry stays servable *)
let capacity = 64 (* max entries per table before eviction *)
let half_life = 1_000_000 (* cycles over which a hit loses half its weight *)

type stats = {
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_invals : int;
  mutable s_evictions : int;
  mutable s_kept : int;
      (* extents preserved across ino invalidations: each one is a
         delegated mem cap the trim saved from re-derivation *)
}

type t = {
  files : (int, fentry) Hashtbl.t;
  attrs : (string, sentry) Hashtbl.t;
  mutable gen : int;
  mutable expected_seq : int;
  stats : stats;
}

let create () =
  {
    files = Hashtbl.create 16;
    attrs = Hashtbl.create 16;
    gen = 0;
    expected_seq = 0;
    stats =
      { s_hits = 0; s_misses = 0; s_invals = 0; s_evictions = 0; s_kept = 0 };
  }

let generation t = t.gen
let stats t = t.stats

(* Importance = hits halved once per elapsed half-life. Integer
   shifts keep the score exact and the eviction order reproducible. *)
let score ~now ~hits ~stamp =
  let age = max 0 (now - stamp) in
  let halvings = min 62 (age / half_life) in
  hits asr halvings

let touch ~now ~hits = (hits + 1, now, now + ttl)

(* {2 File entries} *)

let evict_file t ~now =
  let victim =
    Hashtbl.fold
      (fun ino e acc ->
        let s = score ~now ~hits:e.fe_hits ~stamp:e.fe_stamp in
        match acc with
        | Some (_, best_s, best_ino) when
            best_s < s || (best_s = s && best_ino < ino) ->
          acc
        | _ -> Some (e, s, ino))
      t.files None
  in
  match victim with
  | None -> ()
  | Some (_, _, ino) ->
    Hashtbl.remove t.files ino;
    t.stats.s_evictions <- t.stats.s_evictions + 1

let file_entry t ~now ~ino =
  match Hashtbl.find_opt t.files ino with
  | Some e when now <= e.fe_expire ->
    let hits, stamp, expire = touch ~now ~hits:e.fe_hits in
    e.fe_hits <- hits;
    e.fe_stamp <- stamp;
    e.fe_expire <- expire;
    t.stats.s_hits <- t.stats.s_hits + 1;
    Some e
  | Some _ ->
    (* expired: the entry may be arbitrarily stale (e.g. every
       notification since was lost while we were idle) — drop it *)
    Hashtbl.remove t.files ino;
    t.stats.s_misses <- t.stats.s_misses + 1;
    None
  | None ->
    t.stats.s_misses <- t.stats.s_misses + 1;
    None

let insert_file t ~now ~ino ~size =
  (match Hashtbl.find_opt t.files ino with
  | Some _ -> Hashtbl.remove t.files ino
  | None -> ());
  if Hashtbl.length t.files >= capacity then evict_file t ~now;
  let e =
    {
      fe_ino = ino;
      fe_size = size;
      fe_extents = [];
      fe_fetched = 0;
      fe_alloc_end = 0;
      fe_valid = true;
      fe_hits = 1;
      fe_stamp = now;
      fe_expire = now + ttl;
    }
  in
  Hashtbl.replace t.files ino e;
  e

(* Server-authoritative refresh after a real round-trip (open, fstat):
   the size is fresh and cached extents remain a valid prefix — any
   extent change would have arrived as an invalidation first. No
   hit/miss accounting; the caller already paid the round-trip. *)
let refresh_file t ~now ~ino ~size =
  match Hashtbl.find_opt t.files ino with
  | Some e ->
    e.fe_size <- size;
    e.fe_valid <- true;
    e.fe_stamp <- now;
    e.fe_expire <- now + ttl;
    e
  | None -> insert_file t ~now ~ino ~size

(* {2 Attr entries} *)

let evict_attr t ~now =
  let victim =
    Hashtbl.fold
      (fun path e acc ->
        let s = score ~now ~hits:e.se_hits ~stamp:e.se_stamp in
        match acc with
        | Some (best_s, best_path) when
            best_s < s || (best_s = s && best_path < path) ->
          acc
        | _ -> Some (s, path))
      t.attrs None
  in
  match victim with
  | None -> ()
  | Some (_, path) ->
    Hashtbl.remove t.attrs path;
    t.stats.s_evictions <- t.stats.s_evictions + 1

let attr t ~now ~path =
  match Hashtbl.find_opt t.attrs path with
  | Some e when now <= e.se_expire ->
    let hits, stamp, expire = touch ~now ~hits:e.se_hits in
    e.se_hits <- hits;
    e.se_stamp <- stamp;
    e.se_expire <- expire;
    t.stats.s_hits <- t.stats.s_hits + 1;
    Some e.se_stat
  | Some _ ->
    Hashtbl.remove t.attrs path;
    t.stats.s_misses <- t.stats.s_misses + 1;
    None
  | None ->
    t.stats.s_misses <- t.stats.s_misses + 1;
    None

let insert_attr t ~now ~path st =
  match Hashtbl.find_opt t.attrs path with
  | Some e ->
    e.se_stat <- st;
    e.se_stamp <- now;
    e.se_expire <- now + ttl
  | None ->
    if Hashtbl.length t.attrs >= capacity then evict_attr t ~now;
    Hashtbl.replace t.attrs path
      { se_stat = st; se_hits = 1; se_stamp = now; se_expire = now + ttl }

(* {2 Invalidation} *)

(* Extent/size change (append, truncate): refresh the size in place —
   open handles share the record, so they observe the new size without
   a round-trip — and trim the extent list to the prefix that is still
   provably mapped.  An extent lying entirely inside the new size
   covers committed blocks the commit cannot have moved, so its
   delegated mem cap stays valid and the handles sharing this record
   keep reading through it with zero re-derivation — the common case
   for an in-place overwrite from another VPE, where nothing is
   trimmed at all.  Anything at or past [size] may have been truncated
   or reallocated by the commit and is dropped; the next access past
   the kept prefix refetches locations from [fe_fetched] on. *)
let inval_ino t ~ino ~size =
  let found = ref false in
  (match Hashtbl.find_opt t.files ino with
  | Some e ->
    found := true;
    e.fe_size <- size;
    let rec keep n last = function
      | x :: tl when x.x_foff + x.x_len <= size ->
        keep (n + 1) (x.x_foff + x.x_len) tl
      | _ -> (n, last)
    in
    let kept, cover = keep 0 0 e.fe_extents in
    if kept < List.length e.fe_extents then
      e.fe_extents <- List.filteri (fun i _ -> i < kept) e.fe_extents;
    t.stats.s_kept <- t.stats.s_kept + kept;
    e.fe_fetched <- kept;
    e.fe_alloc_end <- cover;
    e.fe_valid <- true
  | None -> ());
  Hashtbl.iter
    (fun _ e ->
      if e.se_stat.Fs_proto.st_ino = ino then begin
        found := true;
        e.se_stat <- { e.se_stat with Fs_proto.st_size = size }
      end)
    t.attrs;
  if !found then t.stats.s_invals <- t.stats.s_invals + 1;
  !found

(* Namespace entry appeared (create/mkdir): only attr state can be
   stale. We cache no negative entries, so dropping any attr under the
   path is enough; the caller clears its dir cache. *)
let inval_path t ~path =
  let found = Hashtbl.mem t.attrs path in
  Hashtbl.remove t.attrs path;
  if found then t.stats.s_invals <- t.stats.s_invals + 1;
  found

(* Entry removed (unlink): the fentry must leave the table — the path
   is gone, the inode may be freed and its number reused. Handles still
   holding the record are zeroed, so they see EOF rather than reading
   through capabilities to reallocated blocks. *)
let inval_remove t ~ino ~path =
  let found = ref (Hashtbl.mem t.attrs path) in
  Hashtbl.remove t.attrs path;
  (match Hashtbl.find_opt t.files ino with
  | Some e ->
    found := true;
    e.fe_size <- 0;
    e.fe_extents <- [];
    e.fe_fetched <- 0;
    e.fe_alloc_end <- 0;
    e.fe_valid <- true;
    Hashtbl.remove t.files ino
  | None -> ());
  if !found then t.stats.s_invals <- t.stats.s_invals + 1;
  !found

(* Wholesale flush: after a notification gap any entry may be stale.
   Sizes can no longer be trusted, so surviving handles must
   revalidate ([fe_valid = false]) before serving size-dependent
   operations. *)
let flush t =
  Hashtbl.iter
    (fun _ e ->
      e.fe_extents <- [];
      e.fe_fetched <- 0;
      e.fe_alloc_end <- 0;
      e.fe_valid <- false)
    t.files;
  Hashtbl.reset t.files;
  Hashtbl.reset t.attrs;
  t.gen <- t.gen + 1

(* {2 Notification sequencing} *)

(* A fresh cache expects sequence 0, where the service starts a new
   registration's sequence space. *)
let note_seq t ~seq =
  if seq = t.expected_seq then begin
    t.expected_seq <- seq + 1;
    `Ok
  end
  else begin
    t.expected_seq <- seq + 1;
    `Gap
  end
