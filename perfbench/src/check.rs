//! Output checks, always outside the timed window.
//!
//! A bitstream is decoded (`frames::parse` into a [`Fabric`]) and
//! emulated against the *input* RTL through
//! [`verify_against_netlist`], whose reference is the gate-level
//! simulator `fpga_netlist::sim`. The compiler's own mapped netlist is
//! never the reference.

use fpga_bitstream::fabric::{verify_against_netlist, Fabric};
use fpga_netlist::Netlist;

/// Stimulus cycles per check (more than the flow's own 48).
pub const CHECK_CYCLES: usize = 64;

/// SHA-256 of a bitstream, lowercase hex.
pub fn sha256_hex(bytes: &[u8]) -> String {
    fpga_flow::hash::digest_hex(&[bytes])
}

/// Decode `bytes` and emulate the fabric against `rtl` for
/// [`CHECK_CYCLES`] cycles of seeded random stimulus.
pub fn bitstream_matches_rtl(bytes: &[u8], rtl: &Netlist, seed: u64) -> Result<(), String> {
    let parsed = fpga_bitstream::frames::parse(bytes).map_err(|e| format!("decode: {e}"))?;
    let mut fabric = Fabric::new(parsed).map_err(|e| format!("fabric: {e}"))?;
    verify_against_netlist(&mut fabric, rtl, CHECK_CYCLES, seed | 1)
        .map_err(|e| format!("emulation: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_compiled_design_matches_its_input_and_a_corrupted_one_does_not() {
        let rtl = fpga_circuits::rent_logic(24, 0.62, 5);
        let opts = fpga_flow::FlowOptions::builder().channel_width(16).build();
        let art = fpga_flow::run_netlist(rtl.clone(), &opts).unwrap();
        bitstream_matches_rtl(&art.bitstream_bytes, &rtl, 9).unwrap();
        let other = fpga_circuits::rent_logic(24, 0.62, 6);
        assert!(bitstream_matches_rtl(&art.bitstream_bytes, &other, 9).is_err());
    }
}
