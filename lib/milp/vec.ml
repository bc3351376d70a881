(* Growable array used by the model builder (the stdlib gains Dynarray only
   in OCaml 5.2). *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy = { data = Array.make 8 dummy; len = 0; dummy }

let length t = t.len

let ensure_capacity t n =
  if n > Array.length t.data then begin
    let cap = max n (2 * Array.length t.data) in
    let data = Array.make cap t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  ensure_capacity t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.len - 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc
