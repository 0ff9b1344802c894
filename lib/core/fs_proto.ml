type op =
  | Fs_open
  | Fs_close
  | Fs_stat
  | Fs_mkdir
  | Fs_unlink
  | Fs_readdir
  | Fs_rename
  | Fs_drain

let op_to_int = function
  | Fs_open -> 0
  | Fs_close -> 1
  | Fs_stat -> 2
  | Fs_mkdir -> 3
  | Fs_unlink -> 4
  | Fs_readdir -> 5
  | Fs_rename -> 6
  | Fs_drain -> 7

let op_of_int = function
  | 0 -> Some Fs_open
  | 1 -> Some Fs_close
  | 2 -> Some Fs_stat
  | 3 -> Some Fs_mkdir
  | 4 -> Some Fs_unlink
  | 5 -> Some Fs_readdir
  | 6 -> Some Fs_rename
  | 7 -> Some Fs_drain
  | _ -> None

let op_name = function
  | Fs_open -> "open"
  | Fs_close -> "close"
  | Fs_stat -> "stat"
  | Fs_mkdir -> "mkdir"
  | Fs_unlink -> "unlink"
  | Fs_readdir -> "readdir"
  | Fs_rename -> "rename"
  | Fs_drain -> "drain"

type xop =
  | Fs_get_locs
  | Fs_append
  | Fs_fstat
  | Fs_reg_notify

let xop_to_int = function
  | Fs_get_locs -> 0
  | Fs_append -> 1
  | Fs_fstat -> 2
  | Fs_reg_notify -> 3

let xop_of_int = function
  | 0 -> Some Fs_get_locs
  | 1 -> Some Fs_append
  | 2 -> Some Fs_fstat
  | 3 -> Some Fs_reg_notify
  | _ -> None

let xop_name = function
  | Fs_get_locs -> "get_locs"
  | Fs_append -> "append"
  | Fs_fstat -> "fstat"
  | Fs_reg_notify -> "reg_notify"

let o_read = 1
let o_write = 2
let o_create = 4
let o_trunc = 8

type stat = {
  st_size : int;
  st_is_dir : bool;
  st_ino : int;
  st_extents : int;
}

let readdir_batch = 8

let srv_msg_order = 9
let srv_slots = 32
let srv_kchannel_order = 11
let srv_kchannel_slots = 8

(* Cache-invalidation notify channel (service → registered clients).
   A notify message is [u8 kind; u64 seq; u64 ino; u64 size; str path];
   [seq] is per-session and counts *attempted* sends, so a receiver
   that observes a gap knows a notification was dropped and must flush
   conservatively. *)

type inval_kind =
  | Inval_ino  (** extent/size change: ino + new size are valid *)
  | Inval_path  (** namespace entry appeared: path is valid *)
  | Inval_both  (** entry removed/renamed away: ino and path valid *)

let inval_kind_to_int = function
  | Inval_ino -> 0
  | Inval_path -> 1
  | Inval_both -> 2

let inval_kind_name = function
  | Inval_ino -> "ino"
  | Inval_path -> "path"
  | Inval_both -> "both"

let notify_msg_order = 7
let notify_slots = 16
