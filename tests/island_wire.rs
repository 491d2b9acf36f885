//! Fuzzing the island worker's wire: op lines through
//! `serve_island_connection`, the loop `gaserved --island-worker`
//! serves, and checkpoint hex through `CheckpointBundle::from_hex` and
//! `read_checkpoint`. Island ops obey the job lines' rule: every
//! non-blank line gets exactly one reply, in order, whatever its bytes
//! (not UTF-8, over 64 KiB, cut short, numbers out of range), and the
//! connection serves the next line. Checkpoint text decodes to a bundle
//! or a typed error, never a panic.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::OnceLock;
use std::thread::JoinHandle;

use ga_core::islands::IslandConfig;
use ga_core::GaParams;
use ga_engine::{BackendKind, CheckpointBundle, IslandsEngine};
use ga_fitness::TestFunction;
use ga_serve::islands::read_checkpoint;
use ga_serve::net::MAX_LINE_BYTES;
use ga_serve::{serve_island_connection, GaJob};
use proptest::prelude::*;

const INIT: &str = r#"{"op":"init","fn":"F3","backend":"behavioral","islands":2,"shard":1,"pop":8,"gens":6,"xover":10,"mut":1,"seed":5}"#;
const FINISH: &str = r#"{"op":"finish"}"#;

/// Op lines the worker takes, `finish` aside (it ends the connection).
const OPS: [&str; 4] = [
    INIT,
    r#"{"op":"epoch","gens":2}"#,
    r#"{"op":"inject","chrom":777,"fitness":3000}"#,
    r#"{"op":"snapshot"}"#,
];

/// Send `lines`, each with a newline, then [`INIT`] and [`FINISH`] on a
/// fresh worker connection, writing on a thread while the replies are
/// read. Returns every reply and the worker's exit.
fn exchange(lines: &[Vec<u8>]) -> (Vec<String>, Result<(), String>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let worker: JoinHandle<Result<(), String>> = std::thread::spawn(move || {
        let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
        serve_island_connection(stream)
    });
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut input = Vec::new();
    for line in lines
        .iter()
        .map(Vec::as_slice)
        .chain([INIT.as_bytes(), FINISH.as_bytes()])
    {
        input.extend(line);
        input.push(b'\n');
    }
    // A worker that dies mid-input resets the connection; the replies
    // read so far still tell which line it died on.
    let sender = std::thread::spawn(move || {
        let _ = writer.write_all(&input);
    });
    let replies = BufReader::new(stream)
        .lines()
        .map_while(Result::ok)
        .collect();
    sender.join().expect("sender thread");
    (replies, worker.join().expect("worker thread"))
}

/// A line the reader skips: UTF-8 whitespace only, within the cap.
fn blank(line: &[u8]) -> bool {
    line.len() <= MAX_LINE_BYTES && std::str::from_utf8(line).is_ok_and(|t| t.trim().is_empty())
}

fn assert_one_reply_per_line(lines: &[Vec<u8>], replies: &[String]) {
    let answered = lines.iter().filter(|l| !blank(l)).count();
    assert_eq!(replies.len(), answered + 2, "{replies:?}");
    for reply in replies {
        let ok = reply.starts_with(r#"{"ok":true"#);
        let typed = reply.starts_with(r#"{"ok":false,"error":""#);
        assert!(ok || typed, "{reply}");
    }
    let tail = &replies[answered..];
    assert!(tail[0].starts_with(r#"{"ok":true,"seed":"#), "{tail:?}");
    assert!(tail[1].contains(r#""evaluations":"#), "{tail:?}");
}

#[test]
fn a_non_utf8_or_over_long_op_line_gets_one_error_reply_and_the_next_op_is_served() {
    let lines = [
        INIT.as_bytes().to_vec(),
        b"{\"op\":\"epoch\xff\xfe\",\"gens\":2}".to_vec(),
        OPS[1].as_bytes().to_vec(),
        vec![b'x'; MAX_LINE_BYTES + 1],
        OPS[1].as_bytes().to_vec(),
        [OPS[3].as_bytes(), &[b' '; MAX_LINE_BYTES]].concat(),
        OPS[3].as_bytes().to_vec(),
    ];
    let (replies, exit) = exchange(&lines);
    assert_eq!(exit, Ok(()));
    assert_one_reply_per_line(&lines, &replies);
    assert!(replies[1].contains("UTF-8"), "{}", replies[1]);
    assert!(replies[2].contains(r#""fitness":"#), "{}", replies[2]);
    for k in [3, 5] {
        assert!(
            replies[k].starts_with(r#"{"ok":false,"error":"line longer than 65536 bytes"#),
            "{}",
            replies[k]
        );
    }
    assert!(replies[4].contains(r#""fitness":"#), "{}", replies[4]);
    assert!(replies[6].contains(r#""snapshot":""#), "{}", replies[6]);
}

/// A checkpoint of a two-island `F3` ring after one barrier.
fn bundle() -> &'static CheckpointBundle {
    static BUNDLE: OnceLock<CheckpointBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let config = IslandConfig {
            islands: 2,
            epoch: 2,
            epochs: 3,
        };
        let job = GaJob::new(
            TestFunction::F3,
            BackendKind::Behavioral,
            GaParams::new(8, 6, 10, 1, 5),
        )
        .with_islands(config);
        let islands = IslandsEngine::new(job.backend.engine(), config).expect("steps");
        let mut ring = islands.start(job.spec()).expect("starts");
        ring.step_epoch().expect("one barrier")
    })
}

/// `hex` with one edit at `at` (wrapped to its length): a digit
/// replaced by `c`, a cut there, a character inserted, or one removed.
fn mutate(hex: &str, (edit, at, c): (u8, u32, u8)) -> String {
    let mut s = hex.as_bytes().to_vec();
    let at = at as usize % (s.len() + 1);
    match edit % 4 {
        0 if at < s.len() => s[at] = c,
        1 => s.truncate(at),
        2 => s.insert(at, c),
        _ if at < s.len() => {
            s.remove(at);
        }
        _ => s.push(c),
    }
    String::from_utf8_lossy(&s).into_owned()
}

/// An op line with a number far out of its range, or not an integer.
fn out_of_range((which, n): (u8, u32)) -> String {
    let big = u64::from(n) << 32 | 0xFFFF_FFFF;
    match which % 6 {
        0 => format!(r#"{{"op":"epoch","gens":{big}}}"#),
        1 => format!(r#"{{"op":"epoch","gens":-{n}}}"#),
        2 => format!(
            r#"{{"op":"inject","chrom":{},"fitness":1}}"#,
            u64::from(n) + 65_536
        ),
        3 => format!(r#"{{"op":"inject","chrom":1,"fitness":{n}.5}}"#),
        4 => INIT.replace(r#""pop":8"#, &format!(r#""pop":{}"#, u64::from(n) + 256)),
        _ => INIT.replace(r#""shard":1"#, &format!(r#""shard":{}"#, u64::from(n) + 2)),
    }
}

/// One op line without its newline.
fn op_line() -> impl Strategy<Value = Vec<u8>> {
    let no_newline = |b: u8| if b == b'\n' { b'{' } else { b };
    prop_oneof![
        (0..OPS.len()).prop_map(|k| OPS[k].as_bytes().to_vec()),
        (any::<u8>(), any::<u32>()).prop_map(|p| out_of_range(p).into_bytes()),
        (0..OPS.len(), 0..INIT.len()).prop_map(|(k, n)| {
            let op = OPS[k].as_bytes();
            op[..n.min(op.len())].to_vec()
        }),
        (any::<u8>(), any::<u32>(), 48u8..103).prop_map(|edit| {
            // A resume from a damaged snapshot.
            let hex = mutate(&bundle().members[1].to_hex(), edit);
            format!(r#"{},"snapshot":"{hex}"}}"#, &INIT[..INIT.len() - 1]).into_bytes()
        }),
        prop::collection::vec(32u8..127, 0..40),
        prop::collection::vec(any::<u8>().prop_map(no_newline), 0..40),
        (0u8..8, any::<u8>()).prop_map(move |(long, b)| match long {
            // Now and then a line over the 64 KiB cap.
            0 => vec![no_newline(b); MAX_LINE_BYTES + 1 + b as usize],
            _ => vec![no_newline(b); b as usize % 8],
        }),
    ]
}

/// Checkpoint text: arbitrary bytes, arbitrary bytes hex-encoded behind
/// the bundle magic, or the hex of a real bundle with one edit.
fn checkpoint_text() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..80),
        prop::collection::vec(any::<u8>(), 0..80).prop_map(|bytes| {
            let body: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            format!("474301{body}").into_bytes()
        }),
        (any::<u8>(), any::<u32>(), any::<u8>())
            .prop_map(|edit| mutate(&bundle().to_hex(), edit).into_bytes()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every non-blank op line gets exactly one reply, in order, each
    /// an `ok` answer or a typed error; then a fresh `init` and
    /// `finish` are still answered and the worker exits cleanly.
    #[test]
    fn every_op_line_of_arbitrary_bytes_gets_one_reply_in_order(
        lines in prop::collection::vec(op_line(), 1..13),
    ) {
        let (replies, exit) = exchange(&lines);
        prop_assert_eq!(exit, Ok(()));
        assert_one_reply_per_line(&lines, &replies);
        for (line, reply) in lines.iter().filter(|l| !blank(l)).zip(&replies) {
            if line.as_slice() == INIT.as_bytes() {
                prop_assert!(reply.starts_with(r#"{"ok":true,"seed":"#), "{}", reply);
            }
        }
    }

    /// Checkpoint text decodes to a bundle that re-encodes to itself, or
    /// to a typed error; from a file, the same or a typed read error.
    #[test]
    fn checkpoint_text_decodes_or_fails_typed(text in checkpoint_text()) {
        let decoded = std::str::from_utf8(&text)
            .ok()
            .map(|t| CheckpointBundle::from_hex(t.trim()));
        if let Some(Ok(b)) = &decoded {
            prop_assert_eq!(CheckpointBundle::from_hex(&b.to_hex()).as_ref(), Ok(b));
        }
        let path = std::env::temp_dir().join(format!(
            "ga_island_wire_{}.ckpt",
            std::process::id()
        ));
        fs::write(&path, &text).expect("write checkpoint file");
        let read = read_checkpoint(&path);
        let _ = fs::remove_file(&path);
        match decoded {
            Some(Ok(b)) => prop_assert_eq!(read, Ok(b)),
            _ => prop_assert!(read.is_err()),
        }
    }
}
