type item =
  | Label of string
  | Fixed of Inst.t list
  | Ref of { size : int; emit : own:int -> target:int -> Inst.t list; target : string }
  | Comment of string

let label name = Label name
let ins i = Fixed [ i ]
let comment text = Comment text

let branch_item make rs1 rs2 target =
  Ref { size = 1; emit = (fun ~own ~target -> [ make rs1 rs2 (target - own) ]); target }

let beq = branch_item (fun a b off -> Inst.Beq (a, b, off))
let bne = branch_item (fun a b off -> Inst.Bne (a, b, off))
let blt = branch_item (fun a b off -> Inst.Blt (a, b, off))
let bge = branch_item (fun a b off -> Inst.Bge (a, b, off))

let jal rd target = Ref { size = 1; emit = (fun ~own ~target -> [ Inst.Jal (rd, target - own) ]); target }
let j target = jal Inst.x0 target
let call target = jal Inst.ra target

let fits_imm12 v = v >= -2048 && v <= 2047

let li_insts rd v =
  if fits_imm12 v then [ Inst.Addi (rd, Inst.x0, v) ]
  else begin
    let v32 = v land 0xFFFFFFFF in
    let lo = v32 land 0xFFF in
    let lo_signed = if lo >= 0x800 then lo - 0x1000 else lo in
    let hi = ((v32 - lo_signed) lsr 12) land 0xFFFFF in
    if lo_signed = 0 then [ Inst.Lui (rd, hi) ] else [ Inst.Lui (rd, hi); Inst.Addi (rd, rd, lo_signed) ]
  end

let li rd v = Fixed (li_insts rd v)

let la rd target =
  (* Absolute addressing: program origins are concrete in this SoC, so
     lui+addi with the label's absolute address (matching `la` with a
     non-PIC linker).  Size must not depend on the address, so always
     two instructions. *)
  Ref
    {
      size = 2;
      emit =
        (fun ~own:_ ~target ->
          let lo = target land 0xFFF in
          let lo_signed = if lo >= 0x800 then lo - 0x1000 else lo in
          let hi = ((target - lo_signed) lsr 12) land 0xFFFFF in
          [ Inst.Lui (rd, hi); Inst.Addi (rd, rd, lo_signed) ]);
      target;
    }

let mv rd rs = ins (Inst.Addi (rd, rs, 0))
let nop = ins (Inst.Addi (Inst.x0, Inst.x0, 0))
let ret = ins (Inst.Jalr (Inst.x0, Inst.ra, 0))
let halt = ins Inst.Ebreak

type program = { words : int32 array; labels : (string * int) list; listing : string list; origin : int }

type error =
  | Duplicate_label of string
  | Undefined_label of string
  | Branch_out_of_range of { label : string; distance : int; at : int }

exception Error of error

let error_to_string = function
  | Duplicate_label name -> Printf.sprintf "duplicate label %S" name
  | Undefined_label name -> Printf.sprintf "undefined label %S" name
  | Branch_out_of_range { label; distance; at } ->
      Printf.sprintf "branch at 0x%08x to label %S out of range (distance %d bytes)" at label distance

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Asm.Error (%s)" (error_to_string e))
    | _ -> None)

let item_size = function
  | Label _ | Comment _ -> 0
  | Fixed is -> List.length is
  | Ref { size; _ } -> size

let assemble ?(origin = 0) items =
  (* Pass 1: label addresses. *)
  let labels = Hashtbl.create 16 in
  let addr = ref origin in
  List.iter
    (fun item ->
      (match item with
      | Label name ->
          if Hashtbl.mem labels name then raise (Error (Duplicate_label name));
          Hashtbl.add labels name !addr
      | _ -> ());
      addr := !addr + (4 * item_size item))
    items;
  let lookup name =
    match Hashtbl.find_opt labels name with
    | Some a -> a
    | None -> raise (Error (Undefined_label name))
  in
  (* Pass 2: emit. *)
  let words = ref [] and listing = ref [] and addr = ref origin in
  let emit_inst i =
    listing := Printf.sprintf "%08x:  %s" !addr (Inst.to_string i) :: !listing;
    words := Codec.encode i :: !words;
    addr := !addr + 4
  in
  List.iter
    (fun item ->
      match item with
      | Label name -> listing := Printf.sprintf "%08x: <%s>" !addr name :: !listing
      | Comment text -> listing := Printf.sprintf "          ; %s" text :: !listing
      | Fixed is -> List.iter emit_inst is
      | Ref { emit; target; size } ->
          let own = !addr in
          let resolved = lookup target in
          let insts = emit ~own ~target:resolved in
          if List.length insts <> size then invalid_arg "Asm.assemble: ref expansion size mismatch";
          (* Label-relative offsets are the only immediates whose range
             the program author cannot see locally: report which label
             was too far, not just that some immediate overflowed. *)
          (try List.iter emit_inst insts
           with Invalid_argument _ ->
             raise (Error (Branch_out_of_range { label = target; distance = resolved - own; at = own }))))
    items;
  {
    words = Array.of_list (List.rev !words);
    labels = Hashtbl.fold (fun k v acc -> (k, v) :: acc) labels [] |> List.sort compare;
    listing = List.rev !listing;
    origin;
  }

let label_address p name = List.assoc name p.labels
