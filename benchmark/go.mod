module lusail/benchmark

go 1.22

require lusail v0.0.0

replace lusail => ../
