module github.com/gpuckpt/gpuckpt/bench

go 1.22

require github.com/gpuckpt/gpuckpt v0.0.0

replace github.com/gpuckpt/gpuckpt => ../
