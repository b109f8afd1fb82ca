module seqlog/benchmark

go 1.22

require seqlog v0.0.0

replace seqlog => ../
