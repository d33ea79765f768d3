module dyncoll/bench

go 1.23

require dyncoll v0.0.0

replace dyncoll => ../
