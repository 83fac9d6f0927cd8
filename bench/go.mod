module qosres/bench

go 1.22

require qosres v0.0.0

replace qosres => ../
