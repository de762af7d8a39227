let line_bits = 6
let line_size = 1 lsl line_bits

let line_of_byte b = b asr line_bits
let byte_of_line l = l lsl line_bits

let home_of_line ~tiles l =
  if tiles <= 0 then invalid_arg "Addr.home_of_line: tiles must be positive";
  l mod tiles

let log2_exact n =
  if n <= 0 || n land (n - 1) <> 0 then -1
  else
    let rec go b = if 1 lsl b = n then b else go (b + 1) in
    go 0

let lines_of_range ~first_byte ~bytes =
  if bytes <= 0 then invalid_arg "Addr.lines_of_range: bytes must be positive";
  let first = line_of_byte first_byte in
  let last = line_of_byte (first_byte + bytes - 1) in
  List.init (last - first + 1) (fun i -> first + i)
