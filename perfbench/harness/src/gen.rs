//! Generated benchmark inputs, written as canonical `.mnl` text.
//!
//! The program under test only ever sees these files (or their text
//! inside requests); everything here is a pure function of its arguments.

use std::io::Write as _;

use maestro::netlist::chip::{ChipFamily, ChipSpec};
use maestro::netlist::generate::{self, RandomLogicConfig};
use maestro::netlist::library_circuits::{table1_suite, table2_suite};
use maestro::netlist::{mnl, LayoutStyle, Module, NetlistStats};
use maestro::tech::builtin;

/// SplitMix64: derives the per-module seeds and sizes of the appended
/// random-logic blocks from the workload seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn write_modules(path: &str, modules: impl Iterator<Item = Module>) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    for module in modules {
        w.write_all(mnl::to_mnl(&module).as_bytes())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    w.flush().map_err(|e| format!("{path}: {e}"))
}

/// Writes a `mixed` chip of at least `devices` devices followed by `extra`
/// seeded `random_logic` blocks, and reports what it wrote: the module
/// count, the device total, and the chip part's device count both as
/// written and as [`ChipSpec::device_count`] promises it in closed form.
pub fn chip(devices: usize, extra: usize, seed: u64, out: &str) -> Result<String, String> {
    let spec = ChipSpec::new(ChipFamily::Mixed, devices).map_err(|e| e.to_string())?;
    let mut state = seed;
    let blocks: Vec<Module> = (0..extra)
        .map(|_| {
            let block_seed = splitmix(&mut state);
            let cfg = RandomLogicConfig {
                device_count: 50 + (splitmix(&mut state) % 351) as usize,
                ..RandomLogicConfig::default()
            };
            generate::random_logic(block_seed, &cfg)
        })
        .collect();
    let mut chip_written = 0usize;
    let chip_part = spec.modules().inspect(|m| chip_written += m.device_count());
    write_modules(out, chip_part.chain(blocks.iter().cloned()))?;
    let block_devices: usize = blocks.iter().map(Module::device_count).sum();
    Ok(format!(
        "{{\"modules\":{},\"devices\":{},\"chip_devices_written\":{chip_written},\"chip_devices_spec\":{}}}",
        spec.module_count() + blocks.len(),
        chip_written + block_devices,
        spec.device_count()
    ))
}

/// The design-session module pool: the Table 1 (full-custom) and Table 2
/// (standard-cell) suites plus small members of every generator family,
/// sized so one module lays out in tens of milliseconds.
fn pool_modules() -> Vec<Module> {
    let mut pool = table1_suite();
    pool.extend(table2_suite());
    pool.extend([
        generate::counter(4),
        generate::counter(6),
        generate::ripple_adder(3),
        generate::ripple_adder(6),
        generate::shift_register(8),
        generate::shift_register(12),
        generate::mux_tree(2),
        generate::mux_tree(3),
        generate::decoder(2),
        generate::decoder(3),
        generate::parity_tree(8),
        generate::parity_tree(16),
        generate::lfsr(6),
        generate::lfsr(10),
        generate::alu_slice(),
        generate::barrel_shifter(2),
        generate::carry_lookahead_adder(4),
        generate::nmos_inverter_chain(4),
        generate::nmos_inverter_chain(8),
        generate::nmos_nand(2),
        generate::nmos_nand(3),
        generate::nmos_pass_mux(1),
        generate::nmos_pass_mux(2),
        generate::random_nmos_logic(7, 4),
        generate::random_nmos_logic(11, 6),
    ]);
    for (seed, devices) in [(3u64, 12usize), (5, 20), (8, 28), (13, 36), (21, 44)] {
        let cfg = RandomLogicConfig {
            device_count: devices,
            ..RandomLogicConfig::default()
        };
        pool.push(generate::random_logic(seed, &cfg));
    }
    pool
}

/// Writes the pool and reports each module's name, device count and the
/// layout style its templates resolve under (`sc` or `fc`).
pub fn pool(out: &str) -> Result<String, String> {
    let pool = pool_modules();
    let tech = builtin::nmos25();
    let entries: Vec<String> = pool
        .iter()
        .map(|m| {
            let style = if NetlistStats::resolve(m, &tech, LayoutStyle::StandardCell).is_ok() {
                "sc"
            } else {
                "fc"
            };
            format!(
                "{{\"name\":\"{}\",\"devices\":{},\"style\":\"{style}\"}}",
                m.name(),
                m.device_count()
            )
        })
        .collect();
    write_modules(out, pool.into_iter())?;
    Ok(format!("{{\"modules\":[{}]}}", entries.join(",")))
}
