//! The `ranking-facts-server` binary: serves the demo flow of the paper over
//! HTTP with the three pre-loaded synthetic datasets.
//!
//! ```sh
//! cargo run -p rf-server --bin ranking-facts-server -- 127.0.0.1:8080 \
//!     --workers 4 --reactors 4 --max-conns 4096 --max-pending 1024 \
//!     --cache-entries 128 --cache-bytes 67108864 --cache-dir /var/cache/rf
//! ```

use rf_server::{AppState, DatasetCatalog, Server, ServerOptions};

fn main() {
    let options = match ServerOptions::parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            eprintln!(
                "usage: ranking-facts-server [ADDRESS] [--workers N] [--reactors N] \
                 [--max-conns N] [--idle-timeout-ms N] [--request-deadline-ms N] \
                 [--max-pending N] [--cache-entries N] [--cache-bytes N] \
                 [--cache-dir PATH] [--cache-disk-bytes N] [--slow-threshold-ms N] \
                 [--trace-ring-entries N] [--synth-rows N]..."
            );
            std::process::exit(2);
        }
    };

    println!("Loading demonstration datasets (synthetic CS departments, COMPAS, German credit)…");
    let catalog = DatasetCatalog::with_demo_datasets();
    for &rows in &options.synth_rows {
        println!("Generating synthetic scenario with {rows} rows…");
        let slug = catalog.register_synth_scenario(rows);
        println!("Registered /datasets/{slug}");
    }
    let state = AppState::with_service(catalog, options.label_service());
    println!(
        "Label cache: {} entries / {} bytes",
        options.cache_entries, options.cache_bytes
    );

    let config = options.server_config();
    let server = match Server::bind_state(state, &config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("cannot bind {}: {err}", config.bind_address);
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => println!(
            "Ranking Facts is listening on http://{addr}/ \
             ({} reactor shard(s), {} label workers)",
            config.reactors.max(1),
            options.workers
        ),
        Err(err) => eprintln!("cannot determine local address: {err}"),
    }
    if let Err(err) = server.run() {
        eprintln!("server error: {err}");
        std::process::exit(1);
    }
}
