module phylo/benchmark

go 1.22

require phylo v0.0.0

replace phylo => ../
