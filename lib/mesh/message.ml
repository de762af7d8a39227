type class_ = Control | Data

let flits = function Control -> 1 | Data -> 5

let serialization_cycles c = flits c - 1
