module hadfl/benchmark

go 1.22

require hadfl v0.0.0

replace hadfl => ../
