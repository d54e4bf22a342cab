//! The reply encoder: handlers answer with a typed [`Reply`], and
//! [`encode`] is the one place that knows how each framing spells it —
//! `ERR <message>` vs an ERR frame, `OK id:dist,...` vs an OK frame.

use crate::frame;
use pm_lsh_metric::Neighbor;
use std::io::Write;

/// What a request is answered with, before any framing.
#[derive(Debug)]
pub(crate) enum Reply {
    /// A `QUERY`'s neighbors, nearest first.
    Neighbors(Vec<Neighbor>),
    Pong,
    /// The reply of a text-only verb, no trailing newline (a `BATCH`
    /// summary carries its `FAIL` lines, newline-separated). Binary
    /// connections cannot issue these verbs; the `HELLO binary`
    /// acknowledgement is itself the last text line.
    Line(String),
    /// A failure, as the bare message: no `ERR ` prefix, no newline.
    Err(String),
    Bye,
}

/// Appends `reply` to `out` in the connection's framing.
pub(crate) fn encode(reply: Reply, binary: bool, out: &mut Vec<u8>) {
    match (reply, binary) {
        (Reply::Neighbors(neighbors), true) => frame::encode_ok(&neighbors, out),
        (Reply::Pong, true) => frame::encode_pong(out),
        (Reply::Err(message), true) => frame::encode_err(&message, out),
        (reply, _) => encode_text(reply, out).expect("writing to a Vec cannot fail"),
    }
}

fn encode_text(reply: Reply, out: &mut Vec<u8>) -> std::io::Result<()> {
    match reply {
        Reply::Neighbors(neighbors) => {
            out.reserve(16 * neighbors.len() + 4);
            write!(out, "OK ")?;
            for (i, n) in neighbors.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                write!(out, "{sep}{}:{}", n.id, n.dist)?;
            }
            writeln!(out)
        }
        Reply::Pong => writeln!(out, "PONG"),
        Reply::Err(message) => writeln!(out, "ERR {message}"),
        Reply::Line(line) => writeln!(out, "{line}"),
        Reply::Bye => writeln!(out, "BYE"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(reply: Reply, binary: bool) -> Vec<u8> {
        let mut out = Vec::new();
        encode(reply, binary, &mut out);
        out
    }

    #[test]
    fn one_reply_two_framings() {
        let neighbors = vec![
            Neighbor { dist: 0.5, id: 3 },
            Neighbor { dist: 2.0, id: 17 },
        ];
        assert_eq!(
            encoded(Reply::Neighbors(neighbors.clone()), false),
            b"OK 3:0.5,17:2\n"
        );
        assert_eq!(encoded(Reply::Neighbors(Vec::new()), false), b"OK \n");
        let mut framed = Vec::new();
        frame::encode_ok(&neighbors, &mut framed);
        assert_eq!(encoded(Reply::Neighbors(neighbors), true), framed);

        // The ERR frame's message is the text line minus `ERR `.
        let message = "no index attached (ATTACH one, then USE it)";
        assert_eq!(
            encoded(Reply::Err(message.to_string()), false),
            format!("ERR {message}\n").as_bytes()
        );
        let framed = encoded(Reply::Err(message.to_string()), true);
        assert_eq!(
            frame::decode_reply(&framed[4..]),
            Ok(frame::Reply::Err(message.to_string()))
        );

        assert_eq!(encoded(Reply::Pong, false), b"PONG\n");
        assert_eq!(
            frame::decode_reply(&encoded(Reply::Pong, true)[4..]),
            Ok(frame::Reply::Pong)
        );
        assert_eq!(encoded(Reply::Bye, false), b"BYE\n");
        // `OK binary` acknowledges in text whatever comes next.
        assert_eq!(
            encoded(Reply::Line("OK binary".to_string()), true),
            b"OK binary\n"
        );
    }
}
