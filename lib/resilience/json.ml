(* Shared strict-JSON writer + validating reader. The parser itself is
   Obs.Check.parse_json (one strict document, NaN/Infinity rejected) and
   the string escaper is Obs.add_json_string; this module adds the
   deterministic number writers and the path-qualified accessors that
   Checkpoint and the service protocol both build on. *)

type t = Obs.Check.json =
  | Null
  | B of bool
  | N of float
  | S of string
  | A of t list
  | O of (string * t) list

let parse = Obs.Check.parse_json

(* ---------- writing ---------- *)

let add_string = Obs.add_json_string

let add_float b f =
  if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
  else invalid_arg "Json: non-finite float outside a null slot"

let add_int b i = Buffer.add_string b (string_of_int i)

let add_list b add xs =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      add b x)
    xs;
  Buffer.add_char b ']'

let add_array b add xs =
  Buffer.add_char b '[';
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      add b x)
    xs;
  Buffer.add_char b ']'

let escape s =
  let b = Buffer.create (String.length s + 2) in
  add_string b s;
  Buffer.contents b

(* ---------- reading ---------- *)

exception Invalid of string

let invalid fmt = Fmt.kstr (fun m -> raise (Invalid m)) fmt

let as_int what = function
  | N f when Float.is_integer f && Float.abs f <= 9.007199254740992e15 ->
    int_of_float f
  | _ -> invalid "%s: expected an integer" what

let as_int_string what = function
  | S s -> (
    match int_of_string_opt s with
    | Some i -> i
    | None -> invalid "%s: expected an integer string" what)
  | _ -> invalid "%s: expected an integer string" what

let as_float what = function
  | N f -> f
  | _ -> invalid "%s: expected a finite number" what

let as_string what = function
  | S s -> s
  | _ -> invalid "%s: expected a string" what

let as_bool what = function
  | B b -> b
  | _ -> invalid "%s: expected a boolean" what

let as_list what = function
  | A xs -> xs
  | _ -> invalid "%s: expected an array" what

let as_obj what = function
  | O ms -> ms
  | _ -> invalid "%s: expected an object" what

let field what ms k =
  match List.assoc_opt k ms with
  | Some v -> v
  | None -> invalid "%s: missing field %S" what k

let field_opt ms k = List.assoc_opt k ms
