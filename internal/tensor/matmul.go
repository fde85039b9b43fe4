package tensor

import "fmt"

// MatMul computes C = A·B for A (m×k) and B (k×n), returning a new m×n
// tensor. Rows of the output are computed in parallel.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 operands")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", k, k2))
	}
	c := New(m, n)
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes C = A·B into an existing m×n tensor, overwriting it.
func MatMulInto(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	ad, bd, cd := a.Data, b.Data, c.Data
	ParallelByCost(m, k*n, func(rs, re int) {
		for i := rs; i < re; i++ {
			ci := cd[i*n : (i+1)*n]
			for x := range ci {
				ci[x] = 0
			}
			ai := ad[i*k : (i+1)*k]
			// Loop order i-k-j streams B rows and keeps the inner loop
			// vectorizable.
			for p := 0; p < k; p++ {
				av := ai[p]
				if av == 0 {
					continue
				}
				bp := bd[p*n : (p+1)*n]
				for j := range bp {
					ci[j] += av * bp[j]
				}
			}
		}
	})
}

// MatMulTransB computes C = A·Bᵀ for A (m×k) and B (n×k), returning m×n.
// This layout is the natural one for linear-layer weight matrices stored as
// (out, in).
func MatMulTransB(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransB requires rank-2 operands")
	}
	if a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims %d != %d", a.Shape[1], b.Shape[1]))
	}
	c := New(a.Shape[0], b.Shape[0])
	matMulTransB(c, a, b.Data, b.Shape[1])
	return c
}

// MatMulTransBViewInto is MatMulTransB into c (m×n) against the top-left n×k
// block of b (≥n, ≥k), k being a's width and n c's, read in place through b's
// row stride: an elastic layer multiplies by a narrower submodel's weight
// without copying the slice out first (see the destination rule at
// Conv2DInto).
func MatMulTransBViewInto(c, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || c.Rank() != 2 || c.Shape[0] != a.Shape[0] || b.Shape[0] < c.Shape[1] || b.Shape[1] < a.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransBViewInto of %v wants a %dx%d block, have %v", a.Shape, c.Shape[1], a.Shape[1], b.Shape))
	}
	matMulTransB(c, a, b.Data, b.Shape[1])
}

// matMulTransB computes c[i,j] = Σ_p a[i,p]·bd[j·bstride+p], p ascending from
// zero in one accumulator per element. A work item is one row of a against
// sixteen rows of b: the vector kernel advances them as lanes of two
// registers, dotRows whatever it left (all of it without AVX2) four dot
// products at a time — either way independent dependency chains that share
// each load of a, which is what the single latency-bound chain of the plain
// loop lacked. Splitting by output column as well as row keeps every worker
// busy when a is a single row (the classifier, the SE gates).
func matMulTransB(c, a *Tensor, bd []float32, bstride int) {
	m, k := a.Shape[0], a.Shape[1]
	n := c.Shape[1]
	ad, cd := a.Data, c.Data
	nq := (n + 15) / 16
	ParallelByCost(m*nq, 16*k, func(rs, re int) {
		for r := rs; r < re; r++ {
			i, j := r/nq, r%nq*16
			ai := ad[i*k : (i+1)*k]
			ci := cd[i*n+j : min(i*n+j+16, (i+1)*n)]
			bj := bd[j*bstride:]
			cols, terms := dotRowsVec(ci, ai, bj, bstride)
			dotRows(ci[:cols], ai, bj, bstride, terms)
			dotRows(ci[cols:], ai, bj[cols*bstride:], bstride, 0)
		}
	})
}

// dotRows adds to each c[x] the terms a[p]·b[x·bstride+p] for p from p0 up, in
// order: c holds the sums of the terms before p0. At p0 0 there are none, and
// c is only written: the sums start from zero.
func dotRows(c, a, b []float32, bstride, p0 int) {
	k := len(a)
	a = a[p0:]
	x := 0
	for ; x+4 <= len(c); x += 4 {
		b0 := b[x*bstride:][p0:k]
		b1 := b[(x+1)*bstride:][p0:k]
		b2 := b[(x+2)*bstride:][p0:k]
		b3 := b[(x+3)*bstride:][p0:k]
		var s0, s1, s2, s3 float32
		if p0 > 0 {
			s0, s1, s2, s3 = c[x], c[x+1], c[x+2], c[x+3]
		}
		for p, av := range a {
			s0 += av * b0[p]
			s1 += av * b1[p]
			s2 += av * b2[p]
			s3 += av * b3[p]
		}
		c[x], c[x+1], c[x+2], c[x+3] = s0, s1, s2, s3
	}
	for ; x < len(c); x++ {
		bx := b[x*bstride:][p0:k]
		var s float32
		if p0 > 0 {
			s = c[x]
		}
		for p, av := range a {
			s += av * bx[p]
		}
		c[x] = s
	}
}

// MatMulTransA computes C = Aᵀ·B for A (k×m) and B (k×n), returning m×n.
// Used for weight gradients (xᵀ · dy).
func MatMulTransA(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransA requires rank-2 operands")
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dims %d != %d", k, k2))
	}
	c := New(m, n)
	ad, bd, cd := a.Data, b.Data, c.Data
	ParallelByCost(m, k*n, func(rs, re int) {
		for i := rs; i < re; i++ {
			ci := cd[i*n : (i+1)*n]
			for p := 0; p < k; p++ {
				av := ad[p*m+i]
				if av == 0 {
					continue
				}
				bp := bd[p*n : (p+1)*n]
				for j := range bp {
					ci[j] += av * bp[j]
				}
			}
		}
	})
	return c
}

// AddMatMulTransA adds Aᵀ·B to dst (m×n) for A (k×m) and B (k×n) without
// materializing the product: each row's k terms are summed from zero in order
// into a scratch row, as MatMulTransA sums them, and the row is then added to
// dst once, so the bits are dst.Add(MatMulTransA(a, b))'s at any k. It is the
// weight-gradient accumulate of a recurrent step, which would otherwise
// allocate and clear an m×n product per timestep.
func AddMatMulTransA(dst, a, b *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k || len(dst.Data) != m*n {
		panic(fmt.Sprintf("tensor: AddMatMulTransA of %v and %v into %v", a.Shape, b.Shape, dst.Shape))
	}
	ad, bd, dd := a.Data, b.Data, dst.Data
	if k == 1 {
		// One term an element, so the product's sum is 0 + a·b and dst gets
		// d + (0 + a·b). That is (d + a·b) + 0 bit for bit: the two differ
		// only in a zero's sign, and adding +0 gives +0 for every zero, as
		// the sum does. A zero factor adds +0 alone, as MatMulTransA's skip
		// leaves it, even against an infinite or NaN b.
		ParallelByCost(m, n, func(rs, re int) {
			for i := rs; i < re; i++ {
				av, di := ad[i], dd[i*n:(i+1)*n]
				if av == 0 {
					for j := range di {
						di[j] += 0
					}
					continue
				}
				for j, bv := range bd[:len(di)] {
					di[j] = (di[j] + av*bv) + 0
				}
			}
		})
		return
	}
	ParallelByCost(m, k*n, func(rs, re int) {
		var stack [256]float32
		row := stack[:0]
		if n > len(stack) {
			row = make([]float32, n)
		}
		row = row[:n]
		for i := rs; i < re; i++ {
			clear(row)
			for p := 0; p < k; p++ {
				av := ad[p*m+i]
				if av == 0 {
					continue
				}
				bp := bd[p*n : (p+1)*n]
				for j := range bp {
					row[j] += av * bp[j]
				}
			}
			di := dd[i*n : (i+1)*n]
			for j, v := range row {
				di[j] += v
			}
		}
	})
}

// MatVec computes y = A·x for A (m×n) and x (n), returning m.
func MatVec(a, x *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	if x.Len() != n {
		panic(fmt.Sprintf("tensor: MatVec dims %d != %d", n, x.Len()))
	}
	y := New(m)
	ad, xd, yd := a.Data, x.Data, y.Data
	ParallelByCost(m, n, func(rs, re int) {
		for i := rs; i < re; i++ {
			ai := ad[i*n : (i+1)*n]
			var s float32
			for j := range ai {
				s += ai[j] * xd[j]
			}
			yd[i] = s
		}
	})
	return y
}
