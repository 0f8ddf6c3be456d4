//! CPU vs GPU top-K — the paper's §1 framing, made concrete.
//!
//! "Heap is the typical data structure used for this purpose in a
//! sequential algorithm, however, heap operations are difficult to
//! parallelize." This example runs the sequential heap and the
//! chunk-parallel CPU selector for real (host wall-clock) next to the
//! GPU algorithms on the simulator (simulated device time) — two
//! different clocks, labelled as such; the point is the *structure* of
//! the comparison, not a single number.
//!
//! ```sh
//! cargo run --release --example cpu_vs_gpu
//! ```

use gpu_topk::prelude::*;
use std::time::Instant;

fn main() {
    let n = 1 << 22;
    let k = 1000;
    let data = datagen::generate(Distribution::Uniform, n, 99);
    println!("top-{k} of N = 2^22 uniform floats\n");

    // --- CPU, measured on the actual host clock -------------------
    let t = Instant::now();
    let (hv, hi) = heap_topk(&data, k).expect("k <= n");
    let t_heap = t.elapsed().as_secs_f64() * 1e6;
    verify_topk(&data, k, &hv, &hi).unwrap();

    let t = Instant::now();
    let (pv, pi) = parallel_topk(&data, k, 0).expect("k <= n");
    let t_par = t.elapsed().as_secs_f64() * 1e6;
    verify_topk(&data, k, &pv, &pi).unwrap();

    println!("host CPU (wall-clock):");
    println!("  sequential heap      {t_heap:>10.0} us");
    println!(
        "  parallel chunks      {t_par:>10.0} us  ({} threads)",
        std::thread::available_parallelism()
            .map(|x| x.get())
            .unwrap_or(1)
    );

    // --- GPU, on the simulated A100 --------------------------------
    println!("\nsimulated A100 (cost-model time):");
    for alg in [
        Box::new(AirTopK::default()) as Box<dyn TopKAlgorithm>,
        Box::new(GridSelect::default()),
    ] {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.htod("scores", &data);
        gpu.reset_profile();
        let out = alg.select(&mut gpu, &input, k);
        verify_topk(&data, k, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
        println!("  {:<20} {:>10.1} us", alg.name(), gpu.elapsed_us());
    }

    println!(
        "\nThe 16 MiB input alone takes ~{:.0} us to read once at the A100's\n\
         1.55 TB/s — the GPU numbers sit near that roofline, which is the\n\
         paper's whole premise for building top-K on GPUs (§1).",
        (n * 4) as f64 / 1_430_600.0
    );
}
