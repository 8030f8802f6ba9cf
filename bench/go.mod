module tivaware/bench

go 1.22

require tivaware v0.0.0

replace tivaware => ../
