//! Programs: the `.pos` text form of operation traces, so workloads can
//! be stored, diffed, and replayed on the accelerator model.
//!
//! The parser lives in [`poseidon_core::plan::program`], next to the
//! planner that lowers programs to evaluation graphs; see its module docs
//! for the format. This module re-exports it so simulator users keep
//! their import path.

pub use poseidon_core::plan::program::{format, parse, ParseProgramError};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_traces_round_trip() {
        for b in crate::workloads::Benchmark::ALL {
            let t = b.trace();
            let back = parse(&format(&t)).unwrap();
            assert_eq!(t, back, "{}", b.name());
        }
    }

    #[test]
    fn parsed_programs_simulate() {
        let text = "n=65536 special=2\ncmult L=44 x10\nrotation L=44 x4\n";
        let t = parse(text).unwrap();
        let r = crate::Simulator::new(crate::AcceleratorConfig::poseidon_u280()).run(&t);
        assert!(r.seconds > 0.0);
    }
}
