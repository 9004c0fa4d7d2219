//! A1-P policy documents (O-RAN.WG2.A1AP style).
//!
//! The wire format is JSON with an internal `"msg"` tag, e.g.
//! `{"msg":"PutPolicy","policy_id":"edgebol-0","policy_type":20008,
//! "policy":{"airtime":0.35,"max_mcs":17}}`. The codec is hand-rolled
//! rather than derived so the guarantees the control loop depends on are
//! explicit:
//!
//! * [`A1Message::to_json`] is **panic-free** (it returns a `String` for
//!   every representable message; non-finite floats encode as `null`).
//! * `u64` fields (`t_ms`, `bs_power_mw`) round-trip **exactly** — they
//!   are parsed as integers, never through an `f64`.
//! * `f64` fields round-trip **bit-exactly**: encoding uses Rust's
//!   shortest-roundtrip `Display` and decoding uses the full-precision
//!   `str::parse::<f64>`.
//! * Malformed input surfaces as [`OranError::Codec`], never a panic.

use crate::OranError;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The policy type id this workspace registers for its radio policy
/// (policy types are operator-assigned integers in A1).
pub const A1_POLICY_TYPE_RADIO: u32 = 20_008;

/// Identifier of a deployed policy instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PolicyId(pub String);

/// The radio policy content EdgeBOL deploys through A1: the two §3
/// policies the vBS must respect.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadioPolicy {
    /// Policy 2 — uplink airtime fraction in (0, 1].
    pub airtime: f64,
    /// Policy 4 — maximum eligible MCS index (0..=28).
    pub max_mcs: u8,
}

/// Lifecycle status of a policy instance (A1 policy feedback).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyStatus {
    /// Accepted and being enforced.
    Enforced,
    /// Rejected (malformed or unenforceable).
    Rejected,
    /// Deleted on request.
    Deleted,
}

impl PolicyStatus {
    fn as_str(&self) -> &'static str {
        match self {
            PolicyStatus::Enforced => "Enforced",
            PolicyStatus::Rejected => "Rejected",
            PolicyStatus::Deleted => "Deleted",
        }
    }

    fn parse(s: &str) -> Result<Self, OranError> {
        match s {
            "Enforced" => Ok(PolicyStatus::Enforced),
            "Rejected" => Ok(PolicyStatus::Rejected),
            "Deleted" => Ok(PolicyStatus::Deleted),
            other => Err(OranError::Codec(format!("unknown policy status {other:?}"))),
        }
    }
}

/// Messages of the A1 Policy Management Service (plus the KPI stream the
/// data-collector rApp consumes via the O1/data path, which we carry on
/// the same duplex for simplicity).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "msg")]
pub enum A1Message {
    /// non-RT RIC → near-RT RIC: create/update a policy instance.
    PutPolicy { policy_id: PolicyId, policy_type: u32, policy: RadioPolicy },
    /// non-RT RIC → near-RT RIC: delete a policy instance.
    DeletePolicy { policy_id: PolicyId },
    /// near-RT RIC → non-RT RIC: policy feedback.
    Feedback { policy_id: PolicyId, status: PolicyStatus },
    /// near-RT RIC → non-RT RIC: forwarded vBS KPI sample (the paper's
    /// second xApp "manages data KPIs received from the base station …
    /// and forwards it to the learning agent").
    KpiSample {
        /// Millisecond timestamp within the experiment.
        t_ms: u64,
        /// BS power sample in milliwatts (integer to keep the wire format
        /// exact).
        bs_power_mw: u64,
    },
}

impl A1Message {
    /// Serializes to the JSON wire form. Never panics.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        match self {
            A1Message::PutPolicy { policy_id, policy_type, policy } => {
                out.push_str("{\"msg\":\"PutPolicy\",\"policy_id\":");
                write_json_string(&mut out, &policy_id.0);
                // The write! sink is a String: infallible by construction.
                let _ = write!(out, ",\"policy_type\":{policy_type},\"policy\":{{\"airtime\":");
                write_json_f64(&mut out, policy.airtime);
                let _ = write!(out, ",\"max_mcs\":{}}}}}", policy.max_mcs);
            }
            A1Message::DeletePolicy { policy_id } => {
                out.push_str("{\"msg\":\"DeletePolicy\",\"policy_id\":");
                write_json_string(&mut out, &policy_id.0);
                out.push('}');
            }
            A1Message::Feedback { policy_id, status } => {
                out.push_str("{\"msg\":\"Feedback\",\"policy_id\":");
                write_json_string(&mut out, &policy_id.0);
                let _ = write!(out, ",\"status\":\"{}\"}}", status.as_str());
            }
            A1Message::KpiSample { t_ms, bs_power_mw } => {
                let _ = write!(
                    out,
                    "{{\"msg\":\"KpiSample\",\"t_ms\":{t_ms},\"bs_power_mw\":{bs_power_mw}}}"
                );
            }
        }
        out
    }

    /// Peeks the `"msg"` tag of an A1 wire frame without parsing the
    /// document. `None` when the payload is not UTF-8 or carries no
    /// recognizable tag. Used by the chaos layer to classify frames it is
    /// about to drop, delay or corrupt — cheap and non-consuming, unlike
    /// [`A1Message::from_json`].
    pub fn peek_kind(payload: &[u8]) -> Option<&'static str> {
        let text = std::str::from_utf8(payload).ok()?;
        for kind in ["PutPolicy", "DeletePolicy", "Feedback", "KpiSample"] {
            if text.contains(&format!("\"msg\":\"{kind}\"")) {
                return Some(kind);
            }
        }
        None
    }

    /// Parses from the JSON wire form.
    ///
    /// # Errors
    /// [`OranError::Codec`] on malformed JSON, an unknown `"msg"` tag, or
    /// missing/mistyped fields.
    pub fn from_json(s: &str) -> Result<Self, OranError> {
        let doc = json::parse(s)?;
        let mut obj = doc.into_object("A1 message")?;
        let tag = obj.get_str("msg")?;
        match tag.as_str() {
            "PutPolicy" => {
                let mut policy = obj.get("policy")?.into_object("policy")?;
                Ok(A1Message::PutPolicy {
                    policy_id: PolicyId(obj.get_str("policy_id")?),
                    policy_type: obj
                        .get_u64("policy_type")?
                        .try_into()
                        .map_err(|_| OranError::Codec("policy_type exceeds u32".into()))?,
                    policy: RadioPolicy {
                        airtime: policy.get_f64("airtime")?,
                        max_mcs: policy
                            .get_u64("max_mcs")?
                            .try_into()
                            .map_err(|_| OranError::Codec("max_mcs exceeds u8".into()))?,
                    },
                })
            }
            "DeletePolicy" => {
                Ok(A1Message::DeletePolicy { policy_id: PolicyId(obj.get_str("policy_id")?) })
            }
            "Feedback" => Ok(A1Message::Feedback {
                policy_id: PolicyId(obj.get_str("policy_id")?),
                status: PolicyStatus::parse(&obj.get_str("status")?)?,
            }),
            "KpiSample" => Ok(A1Message::KpiSample {
                t_ms: obj.get_u64("t_ms")?,
                bs_power_mw: obj.get_u64("bs_power_mw")?,
            }),
            other => Err(OranError::Codec(format!("unknown A1 message tag {other:?}"))),
        }
    }
}

impl RadioPolicy {
    /// Validates the ranges A1 policy-type schema would enforce.
    pub fn is_valid(&self) -> bool {
        self.airtime > 0.0 && self.airtime <= 1.0 && self.max_mcs <= 28
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's Display is shortest-roundtrip: parsing the digits back
        // recovers the identical bit pattern.
        let _ = write!(out, "{v}");
    } else {
        // JSON has no NaN/Infinity literal; `null` parses back as NaN.
        out.push_str("null");
    }
}

/// A minimal JSON reader: just enough for A1 documents (objects, strings,
/// numbers kept as raw text for exact integer handling, booleans, null).
/// Errors are [`OranError::Codec`] with position context.
mod json {
    use crate::OranError;

    #[derive(Debug)]
    pub enum Value<'a> {
        Object(Vec<(String, Value<'a>)>),
        String(String),
        /// Raw number text; converted on demand so u64 stays exact.
        Number(&'a str),
        /// Payload dropped: no A1 field is boolean, so the value only
        /// ever appears in "unexpected type" errors.
        Bool,
        Null,
    }

    pub struct Object<'a>(pub Vec<(String, Value<'a>)>);

    impl<'a> Value<'a> {
        pub fn into_object(self, what: &str) -> Result<Object<'a>, OranError> {
            match self {
                Value::Object(fields) => Ok(Object(fields)),
                other => Err(OranError::Codec(format!("{what}: expected object, got {other:?}"))),
            }
        }
    }

    impl<'a> Object<'a> {
        pub fn get(&mut self, key: &str) -> Result<Value<'a>, OranError> {
            let idx = self
                .0
                .iter()
                .position(|(k, _)| k == key)
                .ok_or_else(|| OranError::Codec(format!("missing field {key:?}")))?;
            Ok(self.0.swap_remove(idx).1)
        }

        pub fn get_str(&mut self, key: &str) -> Result<String, OranError> {
            match self.get(key)? {
                Value::String(s) => Ok(s),
                other => {
                    Err(OranError::Codec(format!("field {key:?}: expected string, got {other:?}")))
                }
            }
        }

        pub fn get_u64(&mut self, key: &str) -> Result<u64, OranError> {
            match self.get(key)? {
                Value::Number(raw) => raw
                    .parse()
                    .map_err(|_| OranError::Codec(format!("field {key:?}: {raw:?} is not a u64"))),
                other => {
                    Err(OranError::Codec(format!("field {key:?}: expected integer, got {other:?}")))
                }
            }
        }

        pub fn get_f64(&mut self, key: &str) -> Result<f64, OranError> {
            match self.get(key)? {
                Value::Number(raw) => raw.parse().map_err(|_| {
                    OranError::Codec(format!("field {key:?}: {raw:?} is not a number"))
                }),
                Value::Null => Ok(f64::NAN),
                other => {
                    Err(OranError::Codec(format!("field {key:?}: expected number, got {other:?}")))
                }
            }
        }
    }

    pub fn parse(src: &str) -> Result<Value<'_>, OranError> {
        let mut p = Parser { src: src.as_bytes(), text: src, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing data after JSON document"));
        }
        Ok(v)
    }

    const MAX_DEPTH: usize = 32;

    struct Parser<'a> {
        src: &'a [u8],
        text: &'a str,
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn err(&self, msg: &str) -> OranError {
            OranError::Codec(format!("{msg} at byte {}", self.pos))
        }

        fn skip_ws(&mut self) {
            while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.src.get(self.pos) {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.src.get(self.pos).copied()
        }

        fn eat(&mut self, b: u8) -> Result<(), OranError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected {:?}", b as char)))
            }
        }

        fn eat_literal(&mut self, lit: &str) -> bool {
            if self.text[self.pos..].starts_with(lit) {
                self.pos += lit.len();
                true
            } else {
                false
            }
        }

        fn value(&mut self, depth: usize) -> Result<Value<'a>, OranError> {
            if depth > MAX_DEPTH {
                return Err(self.err("nesting too deep"));
            }
            match self.peek() {
                Some(b'{') => self.object(depth),
                Some(b'"') => Ok(Value::String(self.string()?)),
                Some(b't') if self.eat_literal("true") => Ok(Value::Bool),
                Some(b'f') if self.eat_literal("false") => Ok(Value::Bool),
                Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => Err(self.err("expected a JSON value")),
            }
        }

        fn object(&mut self, depth: usize) -> Result<Value<'a>, OranError> {
            self.eat(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.eat(b':')?;
                self.skip_ws();
                let val = self.value(depth + 1)?;
                fields.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(self.err("expected ',' or '}' in object")),
                }
            }
        }

        fn string(&mut self) -> Result<String, OranError> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                let start = self.pos;
                // Fast path: run of plain bytes.
                while let Some(&b) = self.src.get(self.pos) {
                    if b == b'"' || b == b'\\' || b < 0x20 {
                        break;
                    }
                    self.pos += 1;
                }
                // The scanned run is valid UTF-8 because the input is &str
                // and the run breaks only at ASCII bytes.
                out.push_str(&self.text[start..self.pos]);
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .text
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                                // Exactly four hex digits: `from_str_radix`
                                // alone would also take a leading sign.
                                if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                                    return Err(self.err("bad \\u escape"));
                                }
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.err("bad \\u escape"))?;
                                // Surrogate pairs are not needed for A1
                                // ids; reject rather than mis-decode.
                                let c = char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                                out.push(c);
                                self.pos += 4;
                            }
                            _ => return Err(self.err("bad escape sequence")),
                        }
                        self.pos += 1;
                    }
                    _ => return Err(self.err("unterminated string")),
                }
            }
        }

        fn number(&mut self) -> Result<Value<'a>, OranError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            let digits_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == digits_start {
                return Err(self.err("number has no digits"));
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                let frac_start = self.pos;
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
                if self.pos == frac_start {
                    return Err(self.err("number has an empty fraction"));
                }
            }
            if let Some(b'e' | b'E') = self.peek() {
                self.pos += 1;
                if let Some(b'+' | b'-') = self.peek() {
                    self.pos += 1;
                }
                let exp_start = self.pos;
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
                if self.pos == exp_start {
                    return Err(self.err("number has an empty exponent"));
                }
            }
            Ok(Value::Number(&self.text[start..self.pos]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_put_policy() {
        let m = A1Message::PutPolicy {
            policy_id: PolicyId("p-7".into()),
            policy_type: A1_POLICY_TYPE_RADIO,
            policy: RadioPolicy { airtime: 0.35, max_mcs: 17 },
        };
        let j = m.to_json();
        assert!(j.contains("PutPolicy"), "{j}");
        assert_eq!(A1Message::from_json(&j).unwrap(), m);
    }

    #[test]
    fn json_roundtrip_all_variants() {
        let msgs = [
            A1Message::DeletePolicy { policy_id: PolicyId("a".into()) },
            A1Message::Feedback { policy_id: PolicyId("a".into()), status: PolicyStatus::Enforced },
            A1Message::KpiSample { t_ms: 123, bs_power_mw: 5_250 },
        ];
        for m in msgs {
            assert_eq!(A1Message::from_json(&m.to_json()).unwrap(), m);
        }
    }

    #[test]
    fn u64_fields_roundtrip_exactly_at_the_extremes() {
        // Values above 2^53 are where an f64-based number path loses
        // integers; the raw-text path must not.
        for v in [0, 1, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let m = A1Message::KpiSample { t_ms: v, bs_power_mw: v };
            assert_eq!(A1Message::from_json(&m.to_json()).unwrap(), m);
        }
    }

    #[test]
    fn f64_airtime_roundtrips_bit_exactly() {
        for &airtime in &[0.1, 1.0 / 3.0, 0.001, f64::MIN_POSITIVE, 0.9999999999999999] {
            let m = A1Message::PutPolicy {
                policy_id: PolicyId("x".into()),
                policy_type: A1_POLICY_TYPE_RADIO,
                policy: RadioPolicy { airtime, max_mcs: 1 },
            };
            match A1Message::from_json(&m.to_json()).unwrap() {
                A1Message::PutPolicy { policy, .. } => {
                    assert_eq!(policy.airtime.to_bits(), airtime.to_bits());
                }
                other => panic!("wrong variant {other:?}"),
            }
        }
    }

    #[test]
    fn policy_ids_with_escapes_roundtrip() {
        let id = PolicyId("we\"ird\\id\nwith\tcontrol\u{1}chars".into());
        let m = A1Message::DeletePolicy { policy_id: id };
        assert_eq!(A1Message::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn rejects_malformed_json() {
        for bad in [
            "{\"msg\":\"NoSuch\"}",
            "not json",
            "",
            "{",
            "{\"msg\":\"KpiSample\",\"t_ms\":1}", // missing field
            "{\"msg\":\"KpiSample\",\"t_ms\":\"1\",\"bs_power_mw\":2}", // mistyped field
            "{\"msg\":\"KpiSample\",\"t_ms\":1.5,\"bs_power_mw\":2}", // non-integer u64
            "{\"msg\":\"KpiSample\",\"t_ms\":-1,\"bs_power_mw\":2}", // negative u64
            "{\"msg\":\"KpiSample\",\"t_ms\":1,\"bs_power_mw\":2} x", // trailing data
            "{\"msg\":\"Feedback\",\"policy_id\":\"a\",\"status\":\"Odd\"}",
            "{\"msg\":\"DeletePolicy\",\"policy_id\":\"\\u+041\"}", // signed \u escape
        ] {
            let r = A1Message::from_json(bad);
            assert!(
                matches!(r, Err(OranError::Codec(_))),
                "{bad:?} must be a codec error, got {r:?}"
            );
        }
    }

    #[test]
    fn field_order_and_whitespace_are_flexible() {
        let j = " { \"bs_power_mw\" : 2 , \"msg\" : \"KpiSample\" , \"t_ms\" : 9 } ";
        assert_eq!(
            A1Message::from_json(j).unwrap(),
            A1Message::KpiSample { t_ms: 9, bs_power_mw: 2 }
        );
    }

    #[test]
    fn non_finite_airtime_encodes_without_panicking() {
        let m = A1Message::PutPolicy {
            policy_id: PolicyId("n".into()),
            policy_type: A1_POLICY_TYPE_RADIO,
            policy: RadioPolicy { airtime: f64::NAN, max_mcs: 1 },
        };
        let j = m.to_json();
        assert!(j.contains("null"), "{j}");
        match A1Message::from_json(&j).unwrap() {
            A1Message::PutPolicy { policy, .. } => assert!(policy.airtime.is_nan()),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn policy_validation() {
        assert!(RadioPolicy { airtime: 0.5, max_mcs: 28 }.is_valid());
        assert!(!RadioPolicy { airtime: 0.0, max_mcs: 5 }.is_valid());
        assert!(!RadioPolicy { airtime: 1.2, max_mcs: 5 }.is_valid());
        assert!(!RadioPolicy { airtime: 0.5, max_mcs: 29 }.is_valid());
    }

    /// No-panic, typed-error properties of the A1 decoder over untrusted
    /// text: every input yields a message or an [`OranError::Codec`].
    mod a1_json_fuzz {
        use super::*;
        use proptest::prelude::*;

        /// Valid documents covering every variant, escapes and a `null`.
        fn seeds() -> Vec<String> {
            [
                A1Message::PutPolicy {
                    policy_id: PolicyId("edgebol-0".into()),
                    policy_type: A1_POLICY_TYPE_RADIO,
                    policy: RadioPolicy { airtime: 0.35, max_mcs: 17 },
                },
                A1Message::PutPolicy {
                    policy_id: PolicyId("n\u{e9}\u{1}".into()),
                    policy_type: 7,
                    policy: RadioPolicy { airtime: f64::NAN, max_mcs: 0 },
                },
                A1Message::DeletePolicy { policy_id: PolicyId("we\"ird\\id\n".into()) },
                A1Message::Feedback {
                    policy_id: PolicyId("a".into()),
                    status: PolicyStatus::Rejected,
                },
                A1Message::KpiSample { t_ms: u64::MAX, bs_power_mw: 5_250 },
            ]
            .iter()
            .map(A1Message::to_json)
            .collect()
        }

        /// Any character, with JSON's structural characters, escapes,
        /// digits, control characters and multi-byte UTF-8 over-represented.
        fn json_char() -> impl Strategy<Value = char> {
            let from = |c: u32| char::from_u32(c).expect("a scalar value");
            prop_oneof![
                (0x20u32..0x7f).prop_map(from),
                (0u32..0x20).prop_map(from),
                (0x80u32..0xd800).prop_map(from),
                Just('{'),
                Just('}'),
                Just('"'),
                Just('\\'),
                Just(':'),
                Just(','),
                Just('u'),
                Just('-'),
                Just('.'),
                Just('e'),
                Just('0'),
                Just('9'),
                Just('\u{1f600}'),
            ]
        }

        fn json_text(max: usize) -> impl Strategy<Value = String> {
            proptest::collection::vec(json_char(), 0..max)
                .prop_map(|chars| chars.into_iter().collect())
        }

        /// Both decoders on `s`: no panic, and a typed outcome. A decoded
        /// message must survive its own round trip.
        fn check(s: &str) -> Result<(), String> {
            match json::parse(s) {
                Ok(_) | Err(OranError::Codec(_)) => {}
                Err(other) => return Err(format!("json::parse: untyped {other:?} on {s:?}")),
            }
            match A1Message::from_json(s) {
                Ok(msg) => {
                    let wire = msg.to_json();
                    let again = A1Message::from_json(&wire).map(|m| m.to_json());
                    prop_assert!(
                        again.as_ref().ok() == Some(&wire),
                        "{s:?} decoded to {msg:?}, which does not round-trip: {again:?}"
                    );
                }
                Err(OranError::Codec(_)) => {}
                Err(other) => return Err(format!("from_json: untyped {other:?} on {s:?}")),
            }
            Ok(())
        }

        #[test]
        fn the_seed_documents_decode() {
            for doc in seeds() {
                assert!(A1Message::from_json(&doc).is_ok(), "{doc}");
            }
        }

        proptest! {
            #[test]
            fn arbitrary_text_never_panics(s in json_text(200)) {
                check(&s)?;
            }

            #[test]
            fn arbitrary_objects_never_panic(s in json_text(200)) {
                check(&format!("{{{s}}}"))?;
            }

            #[test]
            fn mutated_documents_never_panic(
                which in 0usize..5,
                edits in proptest::collection::vec((0.0f64..1.0, any::<u8>()), 1..6),
                tail in json_text(8),
            ) {
                let mut bytes = seeds()[which].clone().into_bytes();
                for (at, byte) in edits {
                    let i = ((bytes.len() - 1) as f64 * at) as usize;
                    bytes[i] = byte;
                }
                let mut doc = String::from_utf8_lossy(&bytes).into_owned();
                doc.push_str(&tail);
                // Every prefix too: a truncated document is a typed error.
                for cut in (0..=doc.len()).filter(|&c| doc.is_char_boundary(c)) {
                    check(&doc[..cut])?;
                }
            }
        }
    }
}
