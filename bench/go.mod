module mtpu/bench

go 1.24

require mtpu v0.0.0

replace mtpu => ../
