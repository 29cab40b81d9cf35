module propeller/benchmark

go 1.24

require propeller v0.0.0

replace propeller => ../
