//! End-to-end through the facade: the serving subsystem reached via
//! `pm_lsh::prelude` only, from dataset registry to TCP wire format.

use pm_lsh::engine::server::parse_ok_response;
use pm_lsh::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

#[test]
fn prelude_covers_the_serving_workflow() {
    let generator = PaperDataset::Mnist.generator(Scale::Smoke);
    let data = Arc::new(generator.dataset());
    let queries = generator.queries(12);
    let truth = exact_knn_batch(data.view(), queries.view(), 5, 0);

    let index = PmLsh::build(Arc::clone(&data), PmLshParams::paper_defaults());
    let engine: ShardedEngine = Engine::new(
        index,
        EngineConfig {
            threads: 2,
            ..Default::default()
        },
    )
    .into();

    // Batched path: same recall as the per-query path, order preserved.
    let query_vecs: Vec<&[f32]> = queries.iter().collect();
    let batch = engine.query_batch(&query_vecs, 5);
    let mut recall_sum = 0.0;
    for (qi, res) in batch.iter().enumerate() {
        recall_sum += recall(&res.neighbors, &truth[qi]);
    }
    assert!(
        recall_sum / batch.len() as f64 > 0.3,
        "served recall implausibly low: {recall_sum}"
    );

    let stats: EngineStats = engine.stats();
    assert_eq!(stats.queries, 12);

    // Wire path: one query over TCP must reproduce the in-process answer.
    let handle: ServerHandle = serve(engine.clone(), ("127.0.0.1", 0)).expect("bind");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut line = String::from("QUERY 5");
    for v in queries.point(0) {
        line.push(' ');
        line.push_str(&v.to_string());
    }
    line.push('\n');
    writer.write_all(line.as_bytes()).unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let served = parse_ok_response(response.trim()).expect("OK response");
    assert_eq!(
        served.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        batch[0].neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
        "TCP answer diverged from the in-process batch"
    );
    handle.shutdown();
}
