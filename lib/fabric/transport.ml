(* Connected byte pipes for the fabric: Unix-domain and TCP sockets,
   surfaced as stdlib channels so Traceio.Wire never learns what it is
   talking over. *)

type endpoint = Unix_socket of string | Tcp of string * int

let to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let parse s =
  let prefixed p = String.length s > String.length p && String.sub s 0 (String.length p) = p in
  let rest p = String.sub s (String.length p) (String.length s - String.length p) in
  if prefixed "unix:" then Ok (Unix_socket (rest "unix:"))
  else if prefixed "tcp:" then begin
    let body = rest "tcp:" in
    match String.rindex_opt body ':' with
    | None -> Error (Printf.sprintf "tcp endpoint %S needs HOST:PORT" s)
    | Some i -> (
        let host = String.sub body 0 i in
        let port = String.sub body (i + 1) (String.length body - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
        | _ -> Error (Printf.sprintf "tcp endpoint %S needs HOST:PORT with a port in 1..65535" s))
  end
  else Error (Printf.sprintf "endpoint %S must be unix:PATH or tcp:HOST:PORT" s)

(* Every OS-level failure names the endpoint, like the file container
   names its path. *)
let wrap ep f =
  try f ()
  with Unix.Unix_error (e, fn, _) ->
    Traceio.Error.iof "%s: %s (%s)" (to_string ep) (Unix.error_message e) fn

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
      | _ -> Traceio.Error.iof "tcp:%s: host does not resolve" host
      | exception Not_found -> Traceio.Error.iof "tcp:%s: host does not resolve" host)

let sockaddr_of = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp (host, port) -> Unix.ADDR_INET (resolve host, port)

let domain_of = function Unix_socket _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET

type connection = { ic : in_channel; oc : out_channel; peer : string }

type listener = { l_fd : Unix.file_descr; l_endpoint : endpoint; mutable l_closed : bool }

let listen ep =
  wrap ep (fun () ->
      let fd = Unix.socket (domain_of ep) Unix.SOCK_STREAM 0 in
      (try
         (match ep with
         | Unix_socket path -> if Sys.file_exists path then Unix.unlink path
         | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
         Unix.bind fd (sockaddr_of ep);
         Unix.listen fd 16
       with e ->
         Unix.close fd;
         raise e);
      { l_fd = fd; l_endpoint = ep; l_closed = false })

let connection_of_fd ~peer fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  { ic; oc; peer }

let peer_name ep = function
  | Unix.ADDR_UNIX _ -> to_string ep
  | Unix.ADDR_INET (addr, port) -> Printf.sprintf "tcp:%s:%d" (Unix.string_of_inet_addr addr) port

let accept l =
  wrap l.l_endpoint (fun () ->
      let fd, addr = Unix.accept l.l_fd in
      connection_of_fd ~peer:(peer_name l.l_endpoint addr) fd)

let close_listener l =
  if not l.l_closed then begin
    l.l_closed <- true;
    (try Unix.close l.l_fd with Unix.Unix_error _ -> ());
    match l.l_endpoint with
    | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ()
  end

(* A server that has not bound yet looks like ECONNREFUSED (tcp) or a
   missing socket file (unix); both clear on their own once it comes
   up, so they are the only refusals worth sleeping on — anything else
   (unroutable host, permission) will not improve with patience. *)
let transient_refusal = function
  | Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT), _, _) -> true
  | _ -> false

let connect ?(retries = 0) ep =
  if retries < 0 then invalid_arg "Transport.connect: retries must be non-negative";
  let raw () =
    let fd = Unix.socket (domain_of ep) Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (sockaddr_of ep)
     with e ->
       Unix.close fd;
       raise e);
    connection_of_fd ~peer:(to_string ep) fd
  in
  let rec attempt left pause =
    match raw () with
    | c -> c
    | exception (Unix.Unix_error _ as e) when left > 0 && transient_refusal e ->
        Unix.sleepf pause;
        (* doubling backoff, capped: total wait stays bounded and the
           cheap early retries win most serve/connect races outright *)
        attempt (left - 1) (Float.min (pause *. 2.0) 0.5)
    | exception e -> wrap ep (fun () -> raise e)
  in
  attempt retries 0.05

(* ic and oc are two views of one fd: close_out closes the fd, the
   close_in after it then fails harmlessly. *)
let close_connection c =
  (try flush c.oc with Sys_error _ -> ());
  (try close_out_noerr c.oc with Sys_error _ -> ());
  close_in_noerr c.ic
