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
	parallelFor(m, func(rs, re int) {
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
	return matMulTransB(a, b.Data, b.Shape[1], b.Shape[0])
}

// MatMulTransBView is MatMulTransB against the top-left n×k block of b
// (≥n, ≥k), k being a's width, read in place through b's row stride: an
// elastic layer multiplies by a narrower submodel's weight without copying
// the slice out first.
func MatMulTransBView(a, b *Tensor, n int) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 || b.Shape[0] < n || b.Shape[1] < a.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransBView wants a %dx%d block, have %v", n, a.Shape[1], b.Shape))
	}
	return matMulTransB(a, b.Data, b.Shape[1], n)
}

// matMulTransB computes c[i,j] = Σ_p a[i,p]·bd[j·bstride+p], p ascending from
// zero in one accumulator per element. A work item is one row of a against
// sixteen rows of b: the vector kernel advances them as lanes of two
// registers, dotRows whatever it left (all of it without AVX2) four dot
// products at a time — either way independent dependency chains that share
// each load of a, which is what the single latency-bound chain of the plain
// loop lacked. Splitting by output column as well as row keeps every worker
// busy when a is a single row (the classifier, the SE gates).
func matMulTransB(a *Tensor, bd []float32, bstride, n int) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	c := New(m, n)
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
	return c
}

// dotRows adds to each c[x] the terms a[p]·b[x·bstride+p] for p from p0 up, in
// order: c holds the sums of the terms before p0 — zeros when p0 is 0.
func dotRows(c, a, b []float32, bstride, p0 int) {
	k := len(a)
	a = a[p0:]
	x := 0
	for ; x+4 <= len(c); x += 4 {
		b0 := b[x*bstride:][p0:k]
		b1 := b[(x+1)*bstride:][p0:k]
		b2 := b[(x+2)*bstride:][p0:k]
		b3 := b[(x+3)*bstride:][p0:k]
		s0, s1, s2, s3 := c[x], c[x+1], c[x+2], c[x+3]
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
		s := c[x]
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
	parallelFor(m, func(rs, re int) {
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

// MatVec computes y = A·x for A (m×n) and x (n), returning m.
func MatVec(a, x *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	if x.Len() != n {
		panic(fmt.Sprintf("tensor: MatVec dims %d != %d", n, x.Len()))
	}
	y := New(m)
	ad, xd, yd := a.Data, x.Data, y.Data
	parallelFor(m, func(rs, re int) {
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
