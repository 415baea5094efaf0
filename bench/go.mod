module rush/bench

go 1.22

require rush v0.0.0

replace rush => ../
