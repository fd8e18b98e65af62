module ghostdb/benchmark

go 1.24

require ghostdb v0.0.0

replace ghostdb => ../
