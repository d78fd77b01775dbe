module batcher/benchmark

go 1.24

require batcher v0.0.0

replace batcher => ../
