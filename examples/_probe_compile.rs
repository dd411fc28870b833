fn main() {
    let n = 20000u32;
    let t = std::time::Instant::now();
    for _ in 0..n {
        std::hint::black_box(schedlang::compile_protocol(schedlang::stdlib::SS2PL).unwrap());
    }
    println!("compile_protocol: {:?}", t.elapsed() / n);
}
