//! The repetition protocol of §4.
//!
//! "Each experiment was repeated five times" (GEMM); CPU STREAM ten times,
//! GPU STREAM twenty (the GPU runner in `oranges-stream` carries its own
//! count). The protocol object names how many repetitions an experiment
//! averages; each runner decides how it produces them.

/// Metadata identifying an experiment (figure/table id + description).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentMeta {
    /// Paper artifact id, e.g. `"fig2"`, `"table1"`.
    pub id: &'static str,
    /// Human-readable description.
    pub description: &'static str,
}

/// How many repetitions an experiment averages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepetitionProtocol {
    /// Measured repetitions.
    pub reps: u32,
}

impl RepetitionProtocol {
    /// §4's GEMM protocol: five repetitions.
    pub const GEMM: RepetitionProtocol = RepetitionProtocol { reps: 5 };
    /// §4's CPU STREAM protocol: ten repetitions.
    pub const STREAM_CPU: RepetitionProtocol = RepetitionProtocol { reps: 10 };
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
    fn meta_is_plain_data() {
        let meta = ExperimentMeta {
            id: "fig1",
            description: "STREAM bandwidth",
        };
        assert_eq!(meta.id, "fig1");
    }
}
