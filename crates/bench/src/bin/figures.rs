//! `figures DIR [NAME ...]` runs the named rows of [`bpart_bench::FIGURES`]
//! (every row without names) at `BPART_SCALE` (default 0.2), writing each
//! figure's deterministic text to `DIR/NAME.txt` and its wall-clock text,
//! if it has one, to `DIR/timings/NAME.txt`. An unknown name or a bad
//! scale exits 2 before anything runs.

use bpart_bench::{timed, Lab, FIGURES};
use bpart_graph::generate::parse_scale;
use std::{fs, path::Path, process::exit};

fn die(code: i32, msg: String) -> ! {
    eprintln!("figures: {msg}");
    exit(code)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names = FIGURES
        .iter()
        .map(|&(name, _)| name)
        .collect::<Vec<_>>()
        .join(", ");
    let Some((dir, wanted)) = args.split_first() else {
        die(2, format!("usage: figures DIR [NAME ...]; names: {names}"))
    };
    let find = |w: &String| {
        let row = FIGURES.iter().find(|&&(name, _)| name == w);
        *row.unwrap_or_else(|| die(2, format!("unknown figure {w:?}; available: {names}")))
    };
    let rows: Vec<_> = match wanted {
        [] => FIGURES.to_vec(),
        _ => wanted.iter().map(find).collect(),
    };
    let scale = match std::env::var("BPART_SCALE") {
        Err(_) => 0.2,
        Ok(raw) => parse_scale(&raw).unwrap_or_else(|e| die(2, format!("BPART_SCALE: {e}"))),
    };

    let mut lab = Lab::new(scale);
    for (name, figure) in rows {
        let (out, secs) = timed(|| figure(&mut lab));
        let dir = Path::new(dir);
        for (dir, text) in [
            (dir.to_path_buf(), Some(out.text)),
            (dir.join("timings"), out.timings),
        ] {
            let Some(text) = text else { continue };
            let path = dir.join(format!("{name}.txt"));
            let written = fs::create_dir_all(&dir).and_then(|()| fs::write(&path, text));
            written.unwrap_or_else(|e| die(1, format!("cannot write {}: {e}", path.display())));
        }
        println!("{name}: {secs:.2} s");
    }
}
