//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints its report, ending with one JSON line.

use prom_perfbench::cli;
use prom_perfbench::workloads::{self, Scale};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&raw) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: {} seed {} for {} s, trace {}, {} CPUs",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let result = workloads::run(&args, &Scale::for_seconds(args.seconds));
    print!("{}", result.table());
    println!("{}", result.json());
}
