module osdc/bench

go 1.24

require osdc v0.0.0

replace osdc => ../
