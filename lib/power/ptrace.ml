type t = { samples : float array; samples_per_cycle : int }

let length t = Array.length t.samples

(* Streaming render: one small row buffer flushed per sample, so the
   trace is never materialised a second time as one big string. *)
let write_csv oc t =
  output_string oc "index,power\n";
  let row = Buffer.create 32 in
  Array.iteri
    (fun i s ->
      Buffer.clear row;
      Printf.bprintf row "%d,%.6f\n" i s;
      Buffer.output_buffer oc row)
    t.samples

let save_csv path t =
  try
    let oc = open_out path in
    (try
       write_csv oc t;
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e)
  with Sys_error msg -> failwith (Printf.sprintf "Ptrace.save_csv: cannot write %s: %s" path msg)

let ascii_plot ?(height = 16) samples =
  let n = Array.length samples in
  if n = 0 then "(empty trace)\n"
  else begin
    let lo = Array.fold_left Float.min samples.(0) samples in
    let hi = Array.fold_left Float.max samples.(0) samples in
    let range = if hi -. lo <= 0.0 then 1.0 else hi -. lo in
    let width = min 110 n in
    (* min/max envelope per column so narrow spikes stay visible *)
    let col_hi = Array.make width lo and col_lo = Array.make width hi in
    Array.iteri
      (fun i s ->
        let c = i * width / n in
        if s > col_hi.(c) then col_hi.(c) <- s;
        if s < col_lo.(c) then col_lo.(c) <- s)
      samples;
    let grid = Array.make_matrix height width ' ' in
    for c = 0 to width - 1 do
      let row_of v =
        let r = int_of_float (Float.of_int (height - 1) *. (v -. lo) /. range) in
        height - 1 - max 0 (min (height - 1) r)
      in
      let top = row_of col_hi.(c) and bottom = row_of col_lo.(c) in
      for r = top to bottom do
        grid.(r).(c) <- (if r = top then '*' else '|')
      done
    done;
    let buf = Buffer.create (width * height) in
    Array.iteri
      (fun r row ->
        let label =
          if r = 0 then Printf.sprintf "%8.1f |" hi
          else if r = height - 1 then Printf.sprintf "%8.1f |" lo
          else "         |"
        in
        Buffer.add_string buf label;
        Array.iter (Buffer.add_char buf) row;
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf (Printf.sprintf "         +%s\n" (String.make width '-'));
    Buffer.add_string buf (Printf.sprintf "          0 .. %d samples\n" n);
    Buffer.contents buf
  end
