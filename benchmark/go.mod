module mxtasking/benchmark

go 1.22

require mxtasking v0.0.0

replace mxtasking => ../
