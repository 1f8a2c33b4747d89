module cellcurtain/bench

go 1.22

require cellcurtain v0.0.0

replace cellcurtain => ../
