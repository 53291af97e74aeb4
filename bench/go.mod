module openembedding/bench

go 1.22

require openembedding v0.0.0

replace openembedding => ../
