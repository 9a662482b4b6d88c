let default_values = Array.init 29 (fun i -> i - 14)
let default_per_value = 400
let default_poi_count = 16
let default_sign_poi_count = 6
let default_batch = 16
let min_window_length = 16

let profile_magic = "REVEALPF"
let profile_version = 3

let meta_kind_key = "campaign:kind"
let meta_threshold_key = "profiling:threshold-bits"
let meta_values_key = "profiling:values"
let meta_per_value_key = "profiling:per-value"

let gate_confident_threshold = 0.85
let gate_tentative_threshold = 0.0
let gate_sign_only_threshold = 0.5
let gate_retry_budget = 2

(* The retry stream is carved from a generator derived from the trace's
   scope seed; the xor keeps it disjoint from the scope stream itself. *)
let retry_seed_salt = 0x5DEECE66DL

let heartbeat_event = "campaign.heartbeat"

let lwe_instance = Hints.Lwe.seal_128_1024
