type event = {
  index : int;
  cycle : int;
  cycles : int;
  pc : int;
  inst : Inst.t;
  klass : Inst.klass;
  rs1_value : int;
  rs2_value : int;
  rd_old : int;
  rd_new : int;
  mem_addr : int option;
  mem_value : int option;
}

type recorder = { mutable events : event list; mutable count : int }

let recorder () = { events = []; count = 0 }

let record r e =
  r.events <- e :: r.events;
  r.count <- r.count + 1

let events r = Array.of_list (List.rev r.events)
