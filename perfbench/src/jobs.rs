//! Compile-and-run jobs over the seven kernels of `dyncomp-bench`.
//!
//! A job is one kernel plus seeded run-time-constant data (the RPN
//! program, the guard table, the sort spec, the matrix, the wire layout
//! or the query) and the arguments of a handful of calls. The kernel
//! source never changes, so what a job varies is exactly what the
//! dynamic compiler specializes on. Each job carries the reference result
//! of every call, computed when the job is made.

use crate::oracle;
use dyncomp::{Compiler, Session};
use dyncomp_bench::kernels::{calculator, dispatch, protomsg, queryexec, smatmul, sorter, spmv};
use dyncomp_ir::prng::SplitMix64;
use std::ops::Range;

/// Calls each job makes: the first gives the time to first result, the
/// rest are timed one by one.
pub const CALLS: usize = 4;

/// Run-time-constant data, per kernel.
pub enum Data {
    Calc {
        ops: Vec<i64>,
        lits: Vec<i64>,
        xy: Vec<(i64, i64)>,
    },
    Dispatch {
        table: dispatch::GuardTable,
        events: Vec<(i64, i64)>,
    },
    Sorter {
        records: Vec<Vec<i64>>,
    },
    Smatmul {
        rows: u64,
        cols: u64,
        scalars: Vec<u64>,
    },
    Spmv {
        matrix: spmv::Csr,
    },
    Proto {
        layout: protomsg::Layout,
        msgs: Vec<Vec<i64>>,
    },
    Query {
        query: queryexec::Query,
        rows: Vec<Vec<i64>>,
    },
}

pub struct Job {
    pub id: u64,
    pub kernel: &'static str,
    /// Demand-driven inlining depth the job compiles with (0 or 2).
    pub depth: u32,
    pub data: Data,
    /// Reference result of each call.
    pub expected: Vec<u64>,
}

/// Kernel names in job-generation order.
pub const KERNELS: [&str; 7] = [
    "calculator",
    "dispatch",
    "sorter",
    "smatmul",
    "spmv",
    "protomsg",
    "queryexec",
];

impl Job {
    /// A job for kernel `KERNELS[kind]` whose sizes come from stratum
    /// `stratum` of `strata` (see `sized`), its data drawn from `rng`.
    pub fn generate(id: u64, kind: usize, stratum: u64, strata: u64, rng: &mut SplitMix64) -> Job {
        let seed = rng.next_u64();
        // The second size of a kernel walks the strata in another order.
        let other = (stratum * 5 + 2) % strata;
        let mut size = |lo, hi, s| sized(rng, lo, hi, s, strata);
        let (first, second) = match kind {
            0 => (size(4, 20, stratum), 0),
            1 => (size(4, 40, stratum), 0),
            2 => (size(16, 64, stratum), size(1, 12, other)),
            3 => (size(2, 16, stratum), size(8, 64, other)),
            4 => (size(8, 48, stratum), size(2, 6, other)),
            5 => (size(4, 24, stratum), 0),
            _ => (size(3, 12, stratum), size(8, 40, other)),
        };
        let depth = 2 * (stratum % 2) as u32;
        let (kernel, depth, data) = match kind {
            0 => {
                let len = 2 * first + 1;
                let (ops, lits) = random_rpn(len, rng);
                let xy = (0..CALLS)
                    .map(|_| (rng.range_i64(-11, 11), rng.range_i64(-8, 8)))
                    .collect();
                ("calculator", 0, Data::Calc { ops, lits, xy })
            }
            1 => {
                let table = dispatch::gen_guards(first, seed);
                let events = (0..CALLS)
                    .map(|_| (rng.range_i64(0, 40), rng.range_i64(1, 5)))
                    .collect();
                ("dispatch", 0, Data::Dispatch { table, events })
            }
            2 => {
                let records = sorter::gen_records(first, second, seed);
                ("sorter", 0, Data::Sorter { records })
            }
            3 => {
                let (rows, cols) = (first, second);
                let scalars = (0..CALLS).map(|_| rng.range_u64(1, 9)).collect();
                (
                    "smatmul",
                    0,
                    Data::Smatmul {
                        rows,
                        cols,
                        scalars,
                    },
                )
            }
            4 => {
                let matrix = spmv::gen_matrix(first, second, seed);
                ("spmv", 0, Data::Spmv { matrix })
            }
            5 => {
                let n = first;
                let layout = protomsg::gen_layout(n, seed);
                let msgs = (0..CALLS as u64)
                    .map(|m| protomsg::gen_msg(n, seed ^ (m + 1)))
                    .collect();
                ("protomsg", depth, Data::Proto { layout, msgs })
            }
            _ => {
                let query = queryexec::gen_query(first, queryexec::WIDTH, seed);
                let rows = queryexec::gen_rows(second, queryexec::WIDTH, seed ^ 1);
                ("queryexec", depth, Data::Query { query, rows })
            }
        };
        let expected = (0..CALLS).map(|i| reference(&data, i)).collect();
        Job {
            id,
            kernel,
            depth,
            data,
            expected,
        }
    }

    pub fn src(&self) -> &'static str {
        match self.data {
            Data::Calc { .. } => calculator::SRC,
            Data::Dispatch { .. } => dispatch::SRC,
            Data::Sorter { .. } => sorter::SRC,
            Data::Smatmul { .. } => smatmul::SRC,
            Data::Spmv { .. } => spmv::SRC,
            Data::Proto { .. } => protomsg::SRC,
            Data::Query { .. } => queryexec::SRC,
        }
    }

    pub fn func(&self) -> &'static str {
        match self.data {
            Data::Calc { .. } => "calc",
            Data::Dispatch { .. } => "dispatch",
            Data::Sorter { .. } => "sortrecs",
            Data::Smatmul { .. } => "smatmul",
            Data::Spmv { .. } => "spmv",
            Data::Proto { .. } => "decode_msg",
            Data::Query { .. } => "runquery",
        }
    }

    pub fn compiler(&self) -> Compiler {
        if self.depth == 0 {
            Compiler::new()
        } else {
            Compiler::with_inline_depth(self.depth)
        }
    }

    /// Build the job's data in the session's memory; returns the
    /// addresses the calls pass.
    pub fn prepare(&self, s: &mut Session) -> Vec<u64> {
        match &self.data {
            Data::Calc { ops, lits, .. } => {
                let mut h = s.heap();
                let ops_a = h.array_i64(ops).expect("job data fits in memory");
                let lits_a = h.array_i64(lits).expect("job data fits in memory");
                vec![h
                    .record(&[ops.len() as u64, ops_a, lits_a])
                    .expect("job data fits in memory")]
            }
            Data::Dispatch { table, .. } => vec![dispatch::build(s, table)],
            Data::Sorter { records } => {
                let (spec, master, work, n) = sorter::build(s, records);
                vec![spec, master, work, n]
            }
            Data::Smatmul { rows, cols, .. } => {
                let (src, dst, len) = smatmul::build_matrices(s, *rows, *cols);
                vec![src, dst, len]
            }
            Data::Spmv { matrix } => {
                let (m, x, y) = spmv::build(s, matrix);
                vec![m, x, y]
            }
            Data::Proto { layout, msgs } => {
                let mut p = vec![protomsg::build(s, layout)];
                for m in msgs {
                    p.push(s.heap().array_i64(m).expect("job data fits in memory"));
                }
                p
            }
            Data::Query { query, rows } => {
                let (q, r, n) = queryexec::build(s, query, rows);
                vec![q, r, n]
            }
        }
    }

    /// Arguments of call `i`, given `prepare`'s addresses.
    pub fn args(&self, i: usize, p: &[u64]) -> Vec<u64> {
        match &self.data {
            Data::Calc { xy, .. } => vec![p[0], xy[i].0 as u64, xy[i].1 as u64],
            Data::Dispatch { events, .. } => vec![p[0], events[i].0 as u64, events[i].1 as u64],
            Data::Sorter { .. } | Data::Spmv { .. } | Data::Query { .. } => p.to_vec(),
            Data::Smatmul { scalars, .. } => vec![scalars[i], p[2], p[0], p[1]],
            Data::Proto { .. } => vec![p[0], p[1 + i]],
        }
    }

    /// Make calls `calls` on `s`, checking every result against the
    /// reference and appending it to `results`; returns each call's host
    /// time in ns.
    pub fn run_calls(
        &self,
        s: &mut Session,
        prepared: &[u64],
        calls: Range<usize>,
        results: &mut Vec<u64>,
    ) -> Result<Vec<f64>, String> {
        let mut times = Vec::with_capacity(calls.len());
        for i in calls {
            let args = self.args(i, prepared);
            let t0 = std::time::Instant::now();
            let r = s
                .call(self.func(), &args)
                .map_err(|e| format!("job {} ({}) call {i}: {e}", self.id, self.kernel))?;
            times.push(t0.elapsed().as_nanos() as f64);
            crate::expect_eq(
                &format!("job {} ({}) call {i}", self.id, self.kernel),
                r,
                self.expected[i],
            )?;
            results.push(r);
        }
        Ok(times)
    }
}

/// Reference result of call `i` on `data`.
fn reference(data: &Data, i: usize) -> u64 {
    match data {
        Data::Calc { ops, lits, xy } => oracle::rpn_eval(ops, lits, xy[i].0, xy[i].1) as u64,
        Data::Dispatch { table, events } => {
            dispatch::reference(table, events[i].0, events[i].1) as u64
        }
        Data::Sorter { records } => oracle::sorter_checksum(records),
        Data::Smatmul {
            rows,
            cols,
            scalars,
        } => oracle::smatmul_last(rows * cols, scalars[i]),
        Data::Spmv { matrix } => spmv::reference_checksum(matrix) as u64,
        Data::Proto { layout, msgs } => protomsg::reference(layout, &msgs[i]) as u64,
        Data::Query { query, rows } => queryexec::reference(query, rows) as u64,
    }
}

/// A size in `[lo, hi)` from stratum `s` of `n` equal strata, placed
/// within the stratum by `rng`: a pool with one job per stratum covers the
/// range evenly whatever the seed, while exact sizes and all data values
/// still come from the seed.
fn sized(rng: &mut SplitMix64, lo: u64, hi: u64, s: u64, n: u64) -> u64 {
    let width = (hi - lo) as f64 / n as f64;
    (lo + ((s as f64 + rng.range_f64(0.0, 1.0)) * width) as u64).min(hi - 1)
}

/// A well-formed RPN program of `len` tokens (odd) whose operand stack
/// never holds more than 16 values (the kernel's stack has 32 slots).
fn random_rpn(len: u64, rng: &mut SplitMix64) -> (Vec<i64>, Vec<i64>) {
    let mut operands = len.div_ceil(2);
    let mut operators = operands - 1;
    let (mut ops, mut lits) = (Vec::new(), Vec::new());
    let mut depth = 0u64;
    while operands + operators > 0 {
        let can_push = operands > 0 && depth < 16;
        let can_apply = operators > 0 && depth >= 2;
        if can_push && (!can_apply || rng.chance(1, 2)) {
            let op = rng.below(3) as i64;
            ops.push(op);
            lits.push(if op == 0 { rng.range_i64(-9, 9) } else { 0 });
            operands -= 1;
            depth += 1;
        } else {
            ops.push(3 + rng.below(3) as i64);
            lits.push(0);
            operators -= 1;
            depth -= 1;
        }
    }
    (ops, lits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpn_programs_are_well_formed() {
        let mut rng = SplitMix64::new(3);
        for len in [9u64, 21, 41] {
            let (ops, lits) = random_rpn(len, &mut rng);
            assert_eq!(ops.len() as u64, len);
            let _ = oracle::rpn_eval(&ops, &lits, 1, 2);
        }
    }

    #[test]
    fn every_kernel_matches_its_reference_on_the_vm() {
        let mut rng = SplitMix64::new(11);
        for kind in 0..KERNELS.len() {
            let job = Job::generate(kind as u64, kind, 0, 1, &mut rng);
            let program = std::sync::Arc::new(job.compiler().compile(job.src()).unwrap());
            let mut s = Session::new(program);
            let p = job.prepare(&mut s);
            job.run_calls(&mut s, &p, 0..CALLS, &mut Vec::new())
                .unwrap();
        }
    }
}
