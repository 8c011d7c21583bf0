package a

// Appends onto a zero-length reslice reuse the resliced slice's capacity:
// the form reusable kernel scratch takes.

type scratch struct{ buf []int }

//minigiraffe:hot
func hotResliceField(sc *scratch, xs []int) []int {
	out := sc.buf[:0]
	for _, x := range xs {
		out = append(out, x)
	}
	sc.buf = out
	return out
}

//minigiraffe:hot
func hotResliceForms(buf []int, xs []int) int {
	a := buf[0:0]
	var b = buf[:0:len(buf)]
	c := (buf[:0])
	for _, x := range xs {
		a = append(a, x)
		b = append(b, x)
		c = append(c, x)
	}
	return len(a) + len(b) + len(c)
}

//minigiraffe:hot
func hotNotPrealloc(buf []int, xs []int) int {
	var a []int
	b := []int{}
	c := buf[:len(buf)]
	for _, x := range xs {
		a = append(a, x) // want `append grows a inside a loop`
		b = append(b, x) // want `append grows b inside a loop`
		c = append(c, x) // want `append grows c inside a loop`
	}
	return len(a) + len(b) + len(c)
}
