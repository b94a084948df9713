//! The columnar binary shard format.
//!
//! A shard is a self-describing single file:
//!
//! ```text
//! magic            8 bytes   b"PLTDSET1"
//! header_len       u32 LE
//! header           canonical compact JSON: format tag, feature names,
//!                  total row count, per-cell provenance
//!                  (label, seed, rows, positives)
//! feature columns  NUM_FEATURES columns × rows × f32 LE, column-major
//! cell column      rows × u32 LE (index into the header's cell list)
//! label column     rows × u8 (0 benign, 1 malicious)
//! digest           u64 LE — FNV-1a over every preceding byte
//! ```
//!
//! Column-major `f32` keeps corridor-scale exports compact (one byte per
//! label, four per feature) and streaming-friendly; the canonical header
//! plus trailing digest make byte-identity across worker counts checkable
//! with a plain `cmp`.

use platoon_detect::features::{FEATURE_NAMES, NUM_FEATURES};
use platoon_sim::harness::{fnv1a, json};

/// Leading magic bytes of every shard.
pub const MAGIC: &[u8; 8] = b"PLTDSET1";

/// One export cell's rows: a single (attack arm, seed) run.
#[derive(Clone, Debug, PartialEq)]
pub struct CellBlock {
    /// Cell label (`attack/s<idx>`), unique within a shard.
    pub label: String,
    /// The engine seed the cell ran under.
    pub seed: u64,
    /// Per-beacon feature rows, arrival order, `f32`-rounded exactly as
    /// they are stored on disk.
    pub features: Vec<[f32; NUM_FEATURES]>,
    /// Per-row truth labels (0 benign, 1 malicious), row-aligned.
    pub labels: Vec<u8>,
}

impl CellBlock {
    /// Malicious rows in this cell.
    pub fn positives(&self) -> u64 {
        self.labels.iter().filter(|&&l| l == 1).count() as u64
    }
}

/// An ordered collection of cells — one train or test split.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Shard {
    /// Cells in grid submission order.
    pub cells: Vec<CellBlock>,
}

impl Shard {
    /// Total rows across cells.
    pub fn rows(&self) -> usize {
        self.cells.iter().map(|c| c.features.len()).sum()
    }

    /// Total malicious rows across cells.
    pub fn positives(&self) -> u64 {
        self.cells.iter().map(|c| c.positives()).sum()
    }

    /// Encodes the shard into its canonical byte representation,
    /// including the trailing digest.
    pub fn encode(&self) -> Vec<u8> {
        let rows = self.rows();
        let mut w = json::Writer::compact();
        w.obj(|w| {
            w.field_str("format", "platoon-dataset-v1");
            w.field_arr("features", |w| {
                for name in FEATURE_NAMES {
                    w.elem(|w| w.push_str(name));
                }
            });
            w.field_u64("rows", rows as u64);
            w.field_arr("cells", |w| {
                for cell in &self.cells {
                    w.elem(|w| {
                        w.obj(|w| {
                            w.field_str("label", &cell.label);
                            w.field_u64("seed", cell.seed);
                            w.field_u64("rows", cell.features.len() as u64);
                            w.field_u64("positives", cell.positives());
                        })
                    });
                }
            });
        });
        let header = w.finish();
        let mut out = Vec::with_capacity(
            MAGIC.len() + 4 + header.len() + rows * (4 * NUM_FEATURES + 4 + 1) + 8,
        );
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(header.len() as u32).to_le_bytes());
        out.extend_from_slice(header.as_bytes());
        for col in 0..NUM_FEATURES {
            for cell in &self.cells {
                for row in &cell.features {
                    out.extend_from_slice(&row[col].to_le_bytes());
                }
            }
        }
        for (ci, cell) in self.cells.iter().enumerate() {
            for _ in 0..cell.features.len() {
                out.extend_from_slice(&(ci as u32).to_le_bytes());
            }
        }
        for cell in &self.cells {
            out.extend_from_slice(&cell.labels);
        }
        let digest = fnv1a(&out);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }

    /// The digest an encode of this shard carries (recomputed).
    pub fn digest(&self) -> u64 {
        let encoded = self.encode();
        u64::from_le_bytes(encoded[encoded.len() - 8..].try_into().unwrap())
    }

    /// Decodes and fully verifies a shard: magic, header, column sizes and
    /// the trailing digest.
    pub fn decode(bytes: &[u8]) -> Result<Shard, String> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err("shard truncated".into());
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err("bad magic".into());
        }
        let (body, digest_bytes) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(digest_bytes.try_into().unwrap());
        let computed = fnv1a(body);
        if stored != computed {
            return Err(format!(
                "digest mismatch: stored {stored:#x}, computed {computed:#x}"
            ));
        }
        let mut pos = MAGIC.len();
        let header_len = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if body.len() < pos + header_len {
            return Err("header truncated".into());
        }
        let header_text = std::str::from_utf8(&body[pos..pos + header_len])
            .map_err(|e| format!("header not UTF-8: {e}"))?;
        pos += header_len;
        let header = json::parse(header_text)?;
        let cells_meta = match header.get("cells") {
            Some(json::Value::Arr(cells)) => cells,
            _ => return Err("header missing cells".into()),
        };
        let total_rows = header
            .get("rows")
            .and_then(|v| v.as_f64())
            .ok_or("header missing rows")? as usize;
        let mut cells: Vec<CellBlock> = Vec::with_capacity(cells_meta.len());
        for meta in cells_meta {
            let label = match meta.get("label") {
                Some(json::Value::Str(s)) => s.clone(),
                _ => return Err("cell missing label".into()),
            };
            let seed = meta
                .get("seed")
                .and_then(|v| v.as_f64())
                .ok_or("cell missing seed")?;
            let rows = meta
                .get("rows")
                .and_then(|v| v.as_f64())
                .ok_or("cell missing rows")?;
            cells.push(CellBlock {
                label,
                seed: seed as u64,
                features: vec![[0.0; NUM_FEATURES]; rows as usize],
                labels: vec![0; rows as usize],
            });
        }
        if cells.iter().map(|c| c.features.len()).sum::<usize>() != total_rows {
            return Err("cell row counts do not sum to the header total".into());
        }
        let payload = total_rows * (4 * NUM_FEATURES + 4 + 1);
        if body.len() != pos + payload {
            return Err(format!(
                "payload size mismatch: have {}, expected {payload}",
                body.len() - pos
            ));
        }
        for col in 0..NUM_FEATURES {
            for cell in &mut cells {
                for row in &mut cell.features {
                    row[col] = f32::from_le_bytes(body[pos..pos + 4].try_into().unwrap());
                    pos += 4;
                }
            }
        }
        for (ci, cell) in cells.iter().enumerate() {
            for _ in 0..cell.features.len() {
                let stored_ci = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap());
                pos += 4;
                if stored_ci as usize != ci {
                    return Err("cell column does not match header order".into());
                }
            }
        }
        for cell in &mut cells {
            let n = cell.labels.len();
            cell.labels.copy_from_slice(&body[pos..pos + n]);
            pos += n;
        }
        Ok(Shard { cells })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Shard {
        let mut cells = Vec::new();
        for (ci, label) in ["benign/s0", "sybil/s1"].iter().enumerate() {
            let mut features = Vec::new();
            let mut labels = Vec::new();
            for r in 0..17u32 {
                let mut row = [0.0f32; NUM_FEATURES];
                for (fi, f) in row.iter_mut().enumerate() {
                    *f = (ci as f32 + 1.0) * (r as f32 * 0.5 + fi as f32);
                }
                features.push(row);
                labels.push(u8::from(ci == 1 && r % 3 == 0));
            }
            cells.push(CellBlock {
                label: label.to_string(),
                seed: 2021 + ci as u64,
                features,
                labels,
            });
        }
        Shard { cells }
    }

    #[test]
    fn encode_decode_round_trips() {
        let shard = sample();
        let bytes = shard.encode();
        assert_eq!(&bytes[..8], MAGIC);
        let back = Shard::decode(&bytes).expect("decode");
        assert_eq!(back, shard);
        assert_eq!(back.rows(), 34);
        assert_eq!(back.positives(), 6);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample().encode(), sample().encode());
    }

    #[test]
    fn corruption_is_caught_by_the_digest() {
        let mut bytes = sample().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = Shard::decode(&bytes).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample().encode();
        assert!(Shard::decode(&bytes[..bytes.len() - 9]).is_err());
        assert!(Shard::decode(&bytes[..4]).is_err());
    }
}
