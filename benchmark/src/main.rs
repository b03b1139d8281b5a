fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(bcc_benchmark::cli::main(&argv));
}
