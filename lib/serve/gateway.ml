(* Gateway tier: per-client token buckets and per-backend circuit
   breakers.  Pure state machines driven by the sim clock — no gates, no
   VPEs, no side effects.  The dispatcher core ([Dispatch]) owns the
   instances, feeds them cycles and outcomes, and emits the
   observability events for the transitions these functions report. *)

type bucket_config = { refill : int; burst : int }

let bucket ?(burst = 8) ~refill () =
  if refill < 1 then invalid_arg "Gateway.bucket: refill < 1";
  if burst < 1 then invalid_arg "Gateway.bucket: burst < 1";
  { refill; burst }

(* One bucket per client id, created lazily at the client's burst
   allowance.  Refill is integer and remainder-preserving: [last] only
   advances by whole refill periods, so fractional credit is never lost
   and never invented, and the outcome depends only on the cycle
   numbers — identical schedules give identical verdicts. *)
type bucket_state = { mutable tokens : int; mutable last : int }

type buckets = { b_cfg : bucket_config; b_tbl : (int, bucket_state) Hashtbl.t }

let buckets cfg = { b_cfg = cfg; b_tbl = Hashtbl.create 16 }

let take t ~client ~now =
  let st =
    match Hashtbl.find_opt t.b_tbl client with
    | Some st -> st
    | None ->
        let st = { tokens = t.b_cfg.burst; last = now } in
        Hashtbl.replace t.b_tbl client st;
        st
  in
  let elapsed = now - st.last in
  if elapsed >= t.b_cfg.refill then begin
    let whole = elapsed / t.b_cfg.refill in
    st.tokens <- min t.b_cfg.burst (st.tokens + whole);
    st.last <- st.last + (whole * t.b_cfg.refill)
  end;
  if st.tokens > 0 then begin
    st.tokens <- st.tokens - 1;
    true
  end
  else false

type breaker_config = { cooldown : int }

let breaker ~cooldown () =
  if cooldown < 1 then invalid_arg "Gateway.breaker: cooldown < 1";
  { cooldown }

(* A closed breaker opens on [trip_errors] errors within [window]
   cycles. *)
let window = 200_000
let trip_errors = 2

type phase = Closed | Open | Half_open

let phase_name = function
  | Closed -> "close"
  | Open -> "trip"
  | Half_open -> "probe"

type breaker_state = {
  k_cfg : breaker_config;
  mutable k_phase : phase;
  mutable k_since : int;  (* cycle the current phase was entered *)
  mutable k_errors : int list;  (* error cycles, newest first *)
}

let breaker_state cfg =
  { k_cfg = cfg; k_phase = Closed; k_since = 0; k_errors = [] }

let reset t =
  t.k_phase <- Closed;
  t.k_since <- 0;
  t.k_errors <- []

type verdict = Allow | Probe | Deny

(* Unlike [admit], Half_open counts: requests may queue behind the probe. *)
let would_allow t ~now =
  match t.k_phase with
  | Closed | Half_open -> true
  | Open -> now - t.k_since >= t.k_cfg.cooldown

(* Half_open only once a probe is really sent ([on_probe]). *)
let admit t ~now =
  match t.k_phase with
  | Closed -> Allow
  | Half_open -> Deny (* single probe already in flight *)
  | Open -> if now - t.k_since >= t.k_cfg.cooldown then Probe else Deny

let on_probe t ~now =
  t.k_phase <- Half_open;
  t.k_since <- now

let trip t ~now =
  t.k_phase <- Open;
  t.k_since <- now;
  t.k_errors <- []

let on_error t ~now =
  match t.k_phase with
  | Half_open ->
      (* The probe failed: straight back to Open for another cooldown. *)
      trip t ~now;
      true
  | Open -> false
  | Closed ->
      let floor = now - window in
      t.k_errors <- now :: List.filter (fun c -> c > floor) t.k_errors;
      if List.length t.k_errors >= trip_errors then begin
        trip t ~now;
        true
      end
      else false

let on_timeout t ~now =
  (* A watchdog expiry is conclusive evidence — trip immediately rather
     than waiting for two errors, since each one costs a full
     watchdog wait. *)
  match t.k_phase with
  | Open -> false
  | Closed | Half_open ->
      trip t ~now;
      true

let on_success t =
  match t.k_phase with
  | Half_open ->
      t.k_phase <- Closed;
      t.k_errors <- [];
      true
  | Closed | Open -> false

type config = {
  g_bucket : bucket_config option;
  g_breaker : breaker_config option;
}

let config ?bucket ?breaker () = { g_bucket = bucket; g_breaker = breaker }
