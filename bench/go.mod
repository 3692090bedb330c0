module tahoedyn/bench

go 1.22

require tahoedyn v0.0.0

replace tahoedyn => ../
