//! The repetition protocol of §4.
//!
//! "Each experiment was repeated five times" (GEMM); CPU STREAM ten times,
//! GPU STREAM twenty (the GPU runner in `oranges-stream` carries its own
//! count). The protocol object runs a fallible closure N times (plus
//! optional discarded warm-ups) and collects the per-repetition values.

use serde::Serialize;

/// Metadata identifying an experiment (figure/table id + description).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ExperimentMeta {
    /// Paper artifact id, e.g. `"fig2"`, `"table1"`.
    pub id: &'static str,
    /// Human-readable description.
    pub description: &'static str,
}

/// How many repetitions and warm-ups an experiment takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RepetitionProtocol {
    /// Measured repetitions.
    pub reps: u32,
    /// Discarded warm-up repetitions before measuring.
    pub warmup: u32,
}

impl RepetitionProtocol {
    /// §4's GEMM protocol: five repetitions.
    pub const GEMM: RepetitionProtocol = RepetitionProtocol { reps: 5, warmup: 0 };
    /// §4's CPU STREAM protocol: ten repetitions.
    pub const STREAM_CPU: RepetitionProtocol = RepetitionProtocol {
        reps: 10,
        warmup: 0,
    };

    /// Run `body` `warmup + reps` times, keeping the last `reps` values;
    /// the first error aborts the experiment.
    pub fn try_run<T, E>(&self, mut body: impl FnMut(u32) -> Result<T, E>) -> Result<Vec<T>, E> {
        let mut kept = Vec::with_capacity(self.reps as usize);
        for rep in 0..self.warmup + self.reps {
            let value = body(rep)?;
            if rep >= self.warmup {
                kept.push(value);
            }
        }
        Ok(kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_protocols() {
        assert_eq!(RepetitionProtocol::GEMM.reps, 5);
        assert_eq!(RepetitionProtocol::STREAM_CPU.reps, 10);
    }

    #[test]
    fn run_keeps_only_measured_reps() {
        let protocol = RepetitionProtocol { reps: 3, warmup: 2 };
        let values: Result<Vec<u32>, &str> = protocol.try_run(Ok);
        assert_eq!(values, Ok(vec![2, 3, 4]));
    }

    #[test]
    fn try_run_propagates_errors() {
        let protocol = RepetitionProtocol { reps: 5, warmup: 0 };
        let result: Result<Vec<u32>, &str> =
            protocol.try_run(|rep| if rep == 2 { Err("boom") } else { Ok(rep) });
        assert_eq!(result, Err("boom"));
        let ok: Result<Vec<u32>, &str> = protocol.try_run(Ok);
        assert_eq!(ok.unwrap().len(), 5);
    }

    #[test]
    fn meta_is_plain_data() {
        let meta = ExperimentMeta {
            id: "fig1",
            description: "STREAM bandwidth",
        };
        assert_eq!(meta.id, "fig1");
    }
}
