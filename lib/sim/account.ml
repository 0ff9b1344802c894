type category =
  | App
  | Os
  | Xfer

type t = {
  mutable app : int;
  mutable os : int;
  mutable xfer : int;
}

let create () = { app = 0; os = 0; xfer = 0 }

let charge t cat n =
  if n < 0 then invalid_arg "Account.charge: negative amount";
  match cat with
  | App -> t.app <- t.app + n
  | Os -> t.os <- t.os + n
  | Xfer -> t.xfer <- t.xfer + n

let get t = function
  | App -> t.app
  | Os -> t.os
  | Xfer -> t.xfer

let total t = t.app + t.os + t.xfer

let reset t =
  t.app <- 0;
  t.os <- 0;
  t.xfer <- 0

let add ~into t =
  into.app <- into.app + t.app;
  into.os <- into.os + t.os;
  into.xfer <- into.xfer + t.xfer

let pp ppf t = Format.fprintf ppf "app=%d os=%d xfer=%d" t.app t.os t.xfer
