module github.com/scip-cache/scip/benchmark

go 1.22

require github.com/scip-cache/scip v0.0.0

replace github.com/scip-cache/scip => ../
