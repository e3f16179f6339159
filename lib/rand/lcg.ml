type t = { mutable s : int }

let make s = { s }

let bits g =
  g.s <- ((g.s * 1103515245) + 12345) land 0x3fffffff;
  g.s

let below g n =
  let s = bits g in
  if n <= 0 then 0 else s mod n
