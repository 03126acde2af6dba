//! Host references for every call result, written here in plain Rust.
//!
//! None of these runs the compiler under test: each re-derives what a
//! kernel computes from its specification. The calculator, dispatch,
//! protomsg, queryexec and spmv checks use the kernels' own host
//! references (`expected`, `reference`, `reference_checksum`); this file
//! adds the ones those modules lack.

use std::cmp::Ordering;

/// Evaluate the calculator kernel's RPN program (opcodes: 0 literal,
/// 1 `x`, 2 `y`, 3 add, 4 sub, anything else mul) with 64-bit wrapping
/// arithmetic, as the interpreted MiniC `int`s do.
pub fn rpn_eval(ops: &[i64], args: &[i64], x: i64, y: i64) -> i64 {
    let mut stack: Vec<i64> = Vec::with_capacity(16);
    for (&op, &arg) in ops.iter().zip(args) {
        match op {
            0 => stack.push(arg),
            1 => stack.push(x),
            2 => stack.push(y),
            _ => {
                let b = stack.pop().expect("generated RPN is well formed");
                let a = stack.pop().expect("generated RPN is well formed");
                stack.push(match op {
                    3 => a.wrapping_add(b),
                    4 => a.wrapping_sub(b),
                    _ => a.wrapping_mul(b),
                });
            }
        }
    }
    stack[0]
}

/// The sorter kernel's result: sort the records by the multi-key spec
/// the kernel builds (key `i` is field `i`, compared signed ascending,
/// signed descending, unsigned ascending or by absolute value, by
/// `i % 4`), then fold field 0 of each record as `chk = chk * 31 + f0`.
/// Records that compare equal on every key have the same field 0, so the
/// fold does not depend on how ties are ordered.
pub fn sorter_checksum(records: &[Vec<i64>]) -> u64 {
    let mut sorted: Vec<&Vec<i64>> = records.iter().collect();
    sorted.sort_by(|a, b| {
        for (i, (&av, &bv)) in a.iter().zip(b.iter()).enumerate() {
            let o = match i % 4 {
                0 => av.cmp(&bv),
                1 => bv.cmp(&av),
                2 => (av as u64).cmp(&(bv as u64)),
                _ => av.abs().cmp(&bv.abs()),
            };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    });
    sorted.iter().fold(0u64, |chk, r| {
        chk.wrapping_mul(31).wrapping_add(r[0] as u64)
    })
}

/// The smatmul kernel's result for an `len`-element matrix and scalar
/// `s`: the last element of `src * s`, where `src[i] = i % 97 - 48`.
pub fn smatmul_last(len: u64, s: u64) -> u64 {
    let last = ((len - 1) % 97) as i64 - 48;
    last.wrapping_mul(s as i64) as u64
}

/// The serve-open kernels, as `(function, key, x) -> result`.
pub fn serve_kernel(func: &str, k: i64, x: i64) -> i64 {
    match func {
        "poly" => k
            .wrapping_mul(x)
            .wrapping_mul(x)
            .wrapping_add(k.wrapping_mul(x))
            .wrapping_add(k),
        "horner" => (0..k).fold(0i64, |s, i| s.wrapping_mul(x).wrapping_add(i)),
        _ => match k % 4 {
            0 => x + k,
            1 => x.wrapping_mul(k),
            2 => x - (k >> 2),
            _ => (x & k) | 1,
        },
    }
}

/// The serve-open program: three keyed kernels with scalar arguments (the
/// wire protocol passes integers only). `serve_kernel` is their reference.
pub const SERVE_SRC: &str = r#"
int poly(int c, int x) {
    dynamicRegion key(c) (c) {
        return c * x * x + c * x + c;
    }
}
int horner(int n, int x) {
    dynamicRegion key(n) (n) {
        int s = 0;
        int i;
        unrolled for (i = 0; i < n; i++) {
            s = s * x + i;
        }
        return s;
    }
}
int sel(int k, int x) {
    dynamicRegion key(k) (k) {
        int r = 0;
        switch (k % 4) {
            case 0: r = x + k; break;
            case 1: r = x * k; break;
            case 2: r = x - (k >> 2); break;
            default: r = (x & k) | 1; break;
        }
        return r;
    }
}
"#;

/// The result fold the server reports at `close`: FNV-style
/// `checksum * 1099511628211 + result`, wrapping.
pub fn fold(checksum: u64, result: u64) -> u64 {
    checksum
        .wrapping_mul(1_099_511_628_211)
        .wrapping_add(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpn_matches_the_paper_expression() {
        let (ops, args) = dyncomp_bench::kernels::calculator::program();
        for (x, y) in [(2, 3), (-4, 7)] {
            assert_eq!(
                rpn_eval(&ops, &args, x, y),
                dyncomp_bench::kernels::calculator::expected(x, y)
            );
        }
    }

    #[test]
    fn serve_kernels_by_hand() {
        assert_eq!(serve_kernel("poly", 3, 10), 333);
        assert_eq!(serve_kernel("horner", 5, 3), 58);
        assert_eq!(serve_kernel("sel", 7, 100), 5);
        assert_eq!(serve_kernel("sel", 6, 100), 99);
    }

    #[test]
    fn sorter_fold_orders_field_zero() {
        let recs = vec![vec![2, 0], vec![-1, 5], vec![2, 1]];
        // Sorted: [-1,5], [2,1], [2,0] (key 1 descending).
        let want = ((-1i64 as u64).wrapping_mul(31).wrapping_add(2))
            .wrapping_mul(31)
            .wrapping_add(2);
        assert_eq!(sorter_checksum(&recs), want);
    }
}
