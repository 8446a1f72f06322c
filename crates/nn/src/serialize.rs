//! Parameter (de)serialization: extract a network's parameters into a
//! portable "state dict" and load it back into a structurally identical
//! network, mirroring how trained Sato models are shipped and reloaded.
//!
//! A [`StateDict`] carries both trainable parameters (`tensors`) and
//! non-trainable *buffers* (`buffers`, e.g. BatchNorm running statistics),
//! so a whole multi-input network round-trips with its evaluation-mode
//! behaviour intact — see `MultiInputNetwork::state_dict` /
//! `MultiInputNetwork::load_state_dict`, which like a lone layer (Sato's
//! output head) go through [`StateDict::capture`] / [`StateDict::load_into`].

use crate::layers::Layer;
use crate::matrix::Matrix;

/// A snapshot of every trainable parameter (and, for full-network captures,
/// every buffer) of a network, in the stable traversal order of `params()` /
/// `buffers()`.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDict {
    /// Parameter values, in traversal order.
    pub tensors: Vec<Matrix>,
    /// Non-trainable state (e.g. BatchNorm running mean/variance), in
    /// traversal order. Empty for parameter-only snapshots.
    pub buffers: Vec<Vec<f32>>,
}

/// Error returned when a state dict cannot be loaded into a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The number of tensors differs from the number of parameters.
    CountMismatch {
        /// Parameters in the target network.
        expected: usize,
        /// Tensors in the state dict.
        found: usize,
    },
    /// A tensor's shape differs from the target parameter's shape.
    ShapeMismatch {
        /// Index of the offending parameter.
        index: usize,
        /// Shape of the target parameter.
        expected: (usize, usize),
        /// Shape found in the state dict.
        found: (usize, usize),
    },
    /// The number of buffers differs from the number in the target network.
    BufferCountMismatch {
        /// Buffers in the target network.
        expected: usize,
        /// Buffers in the state dict.
        found: usize,
    },
    /// A buffer's length differs from the target buffer's length.
    BufferLenMismatch {
        /// Index of the offending buffer.
        index: usize,
        /// Length of the target buffer.
        expected: usize,
        /// Length found in the state dict.
        found: usize,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::CountMismatch { expected, found } => {
                write!(
                    f,
                    "state dict has {found} tensors but network has {expected} parameters"
                )
            }
            LoadError::ShapeMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "tensor {index} has shape {found:?} but parameter expects {expected:?}"
            ),
            LoadError::BufferCountMismatch { expected, found } => {
                write!(
                    f,
                    "state dict has {found} buffers but network has {expected}"
                )
            }
            LoadError::BufferLenMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "buffer {index} has length {found} but network expects {expected}"
            ),
        }
    }
}

impl std::error::Error for LoadError {}

/// Check tensor count and shapes against the state dict.
fn check_tensors(shapes: &[(usize, usize)], state: &StateDict) -> Result<(), LoadError> {
    if shapes.len() != state.tensors.len() {
        return Err(LoadError::CountMismatch {
            expected: shapes.len(),
            found: state.tensors.len(),
        });
    }
    for (i, (&expected, t)) in shapes.iter().zip(&state.tensors).enumerate() {
        if expected != t.shape() {
            return Err(LoadError::ShapeMismatch {
                index: i,
                expected,
                found: t.shape(),
            });
        }
    }
    Ok(())
}

/// Check buffer count and lengths against the state dict.
fn check_buffers(lens: &[usize], state: &StateDict) -> Result<(), LoadError> {
    if lens.len() != state.buffers.len() {
        return Err(LoadError::BufferCountMismatch {
            expected: lens.len(),
            found: state.buffers.len(),
        });
    }
    for (i, (&expected, s)) in lens.iter().zip(&state.buffers).enumerate() {
        if expected != s.len() {
            return Err(LoadError::BufferLenMismatch {
                index: i,
                expected,
                found: s.len(),
            });
        }
    }
    Ok(())
}

/// Typed decode errors of the flat [`StateDict`] byte layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateBytesError {
    /// The buffer ended before the named field was fully read.
    Truncated(&'static str),
    /// A structurally invalid payload (overflowing shapes, trailing bytes).
    Corrupt(&'static str),
}

impl std::fmt::Display for StateBytesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateBytesError::Truncated(what) => {
                write!(f, "state dict payload truncated while reading {what}")
            }
            StateBytesError::Corrupt(what) => write!(f, "corrupt state dict payload: {what}"),
        }
    }
}

impl std::error::Error for StateBytesError {}

/// Little-endian field reader over a byte payload.
///
/// Deliberately the same minimal helper as its siblings in `sato-topic`
/// and `sato-core` (the crates cannot share one without a new dependency
/// edge); keep fixes mirrored.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], StateBytesError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(StateBytesError::Truncated(what))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, StateBytesError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn f32_vec(&mut self, len: usize, what: &'static str) -> Result<Vec<f32>, StateBytesError> {
        let bytes = self.take(
            len.checked_mul(4).ok_or(StateBytesError::Corrupt(what))?,
            what,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

fn push_f32s(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(values.len() * 4);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

impl StateDict {
    /// Snapshot every parameter, then every buffer, of `layers` in order:
    /// the one capture behind every container's state dict.
    pub fn capture(layers: &[&dyn Layer]) -> Self {
        StateDict {
            tensors: layers
                .iter()
                .flat_map(|l| l.params())
                .map(|p| p.value.clone())
                .collect(),
            buffers: layers.iter().flat_map(|l| l.buffers()).cloned().collect(),
        }
    }

    /// Load a state dict captured by [`Self::capture`] into structurally
    /// identical `layers`. All-or-nothing: every count and shape is checked
    /// before anything is copied, so on error no parameter or buffer has
    /// been modified.
    pub fn load_into(&self, layers: &mut [&mut dyn Layer]) -> Result<(), LoadError> {
        let shapes: Vec<_> = layers
            .iter()
            .flat_map(|l| l.params())
            .map(|p| p.value.shape())
            .collect();
        check_tensors(&shapes, self)?;
        let lens: Vec<_> = layers
            .iter()
            .flat_map(|l| l.buffers())
            .map(Vec::len)
            .collect();
        check_buffers(&lens, self)?;
        for (p, t) in layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .zip(&self.tensors)
        {
            p.value = t.clone();
        }
        for (b, s) in layers
            .iter_mut()
            .flat_map(|l| l.buffers_mut())
            .zip(&self.buffers)
        {
            b.clone_from(s);
        }
        Ok(())
    }

    /// Append the flat binary form to `out`: tensor count, then per tensor
    /// `rows u32 | cols u32 | rows·cols f32`, then buffer count and per
    /// buffer `len u32 | len f32` — everything little-endian, weight data
    /// laid out exactly as the row-major `Matrix` holds it in memory.
    ///
    /// This is the `NETW`/`HEAD` section payload of the predictor artifact.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.tensors.len() as u32).to_le_bytes());
        for t in &self.tensors {
            out.extend_from_slice(&(t.rows() as u32).to_le_bytes());
            out.extend_from_slice(&(t.cols() as u32).to_le_bytes());
            push_f32s(out, t.data());
        }
        out.extend_from_slice(&(self.buffers.len() as u32).to_le_bytes());
        for b in &self.buffers {
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            push_f32s(out, b);
        }
    }

    /// Decode a state dict written by [`Self::write_bytes`], bit-identical
    /// to the one that was written.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StateBytesError> {
        let mut r = ByteReader { bytes, pos: 0 };
        let tensor_count = r.u32("tensor count")? as usize;
        let mut tensors = Vec::with_capacity(tensor_count.min(1024));
        for _ in 0..tensor_count {
            let rows = r.u32("tensor rows")? as usize;
            let cols = r.u32("tensor cols")? as usize;
            let len = rows
                .checked_mul(cols)
                .ok_or(StateBytesError::Corrupt("tensor shape overflow"))?;
            let data = r.f32_vec(len, "tensor data")?;
            tensors.push(Matrix::from_vec(rows, cols, data));
        }
        let buffer_count = r.u32("buffer count")? as usize;
        let mut buffers = Vec::with_capacity(buffer_count.min(1024));
        for _ in 0..buffer_count {
            let len = r.u32("buffer length")? as usize;
            buffers.push(r.f32_vec(len, "buffer data")?);
        }
        if r.pos != bytes.len() {
            return Err(StateBytesError::Corrupt("trailing bytes after state dict"));
        }
        Ok(StateDict { tensors, buffers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm, Dense, ReLU};
    use crate::network::{MultiInferScratch, MultiInputNetwork, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `stack` behind one identity branch: the container Sato serializes.
    fn wrap(stack: Sequential) -> MultiInputNetwork {
        MultiInputNetwork::new(vec![Sequential::new()], stack)
    }

    fn net(seed: u64) -> MultiInputNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        wrap(
            Sequential::new()
                .push(Dense::new(3, 4, &mut rng))
                .push(ReLU::new())
                .push(Dense::new(4, 2, &mut rng)),
        )
    }

    fn infer(net: &MultiInputNetwork, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        net.infer_with(
            std::slice::from_ref(x),
            &mut MultiInferScratch::new(),
            &mut out,
        );
        out
    }

    #[test]
    fn save_and_load_round_trip() {
        let a = net(1);
        let mut b = net(2);
        let x = Matrix::from_rows(&[vec![1.0, -0.5, 2.0]]);
        assert_ne!(infer(&a, &x), infer(&b, &x));
        b.load_state_dict(&a.state_dict()).unwrap();
        assert_eq!(infer(&a, &x), infer(&b, &x));

        // A lone layer (Sato's output head) round-trips the same way.
        let head = Dense::new(3, 2, &mut StdRng::seed_from_u64(1));
        let mut other = Dense::new(3, 2, &mut StdRng::seed_from_u64(2));
        let (mut want, mut got) = (Matrix::default(), Matrix::default());
        head.infer_into(&x, &mut want);
        other.infer_into(&x, &mut got);
        assert_ne!(want, got);
        StateDict::capture(&[&head])
            .load_into(&mut [&mut other])
            .unwrap();
        other.infer_into(&x, &mut got);
        assert_eq!(want, got);
    }

    #[test]
    fn count_mismatch_is_detected() {
        let mut a = net(1);
        let state = StateDict {
            tensors: vec![],
            buffers: vec![],
        };
        let err = a.load_state_dict(&state).unwrap_err();
        assert!(matches!(err, LoadError::CountMismatch { .. }));
        assert!(err.to_string().contains("tensors"));
    }

    #[test]
    fn shape_mismatch_is_detected_and_nothing_is_loaded() {
        let mut a = net(1);
        let mut wrong = a.state_dict();
        wrong.tensors[2] = Matrix::zeros(10, 10);
        let before = a.state_dict();
        let err = a.load_state_dict(&wrong).unwrap_err();
        assert!(matches!(err, LoadError::ShapeMismatch { index: 2, .. }));
        // The failed load must not have partially overwritten parameters.
        assert_eq!(before, a.state_dict());
    }

    /// A stack with a BatchNorm layer, whose running statistics only live in
    /// the buffers of a state dict.
    fn bn_net(seed: u64) -> MultiInputNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        wrap(
            Sequential::new()
                .push(Dense::new(3, 4, &mut rng))
                .push(BatchNorm::new(4))
                .push(ReLU::new())
                .push(Dense::new(4, 2, &mut rng)),
        )
    }

    #[test]
    fn full_state_dict_round_trips_running_statistics() {
        let mut a = bn_net(5);
        let x = Matrix::from_rows(&[
            vec![1.0, -0.5, 2.0],
            vec![0.0, 3.0, -1.0],
            vec![2.0, 0.5, 0.5],
        ]);
        // Drive the running statistics away from their initial values.
        for _ in 0..50 {
            a.forward(std::slice::from_ref(&x));
        }
        let state = a.state_dict();
        assert!(!state.buffers.is_empty(), "BatchNorm buffers captured");

        let mut b = bn_net(6);
        b.load_state_dict(&state).unwrap();
        // Evaluation-mode outputs (which depend on the running statistics)
        // must match bit for bit.
        assert_eq!(infer(&a, &x), infer(&b, &x));
    }

    #[test]
    fn byte_round_trip_is_bit_identical() {
        let mut a = bn_net(9);
        let x = Matrix::from_rows(&[vec![1.0, -0.5, 2.0], vec![0.5, 0.0, -3.0]]);
        for _ in 0..10 {
            a.forward(std::slice::from_ref(&x));
        }
        let state = a.state_dict();
        let mut bytes = Vec::new();
        state.write_bytes(&mut bytes);
        let back = StateDict::from_bytes(&bytes).unwrap();
        assert_eq!(state, back);
    }

    #[test]
    fn byte_decode_rejects_truncation_and_trailing_garbage() {
        let state = net(4).state_dict();
        let mut bytes = Vec::new();
        state.write_bytes(&mut bytes);
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(
                matches!(
                    StateDict::from_bytes(&bytes[..cut]),
                    Err(StateBytesError::Truncated(_))
                ),
                "cut at {cut} not reported as truncation"
            );
        }
        bytes.push(0xAB);
        assert!(matches!(
            StateDict::from_bytes(&bytes),
            Err(StateBytesError::Corrupt(_))
        ));
    }

    #[test]
    fn buffer_mismatch_is_detected_and_nothing_is_loaded() {
        let mut a = bn_net(7);
        let mut wrong = a.state_dict();
        wrong.buffers[0].push(0.0);
        let before = a.state_dict();
        let err = a.load_state_dict(&wrong).unwrap_err();
        assert!(matches!(err, LoadError::BufferLenMismatch { index: 0, .. }));
        assert_eq!(a.state_dict(), before);

        let mut missing = before.clone();
        missing.buffers.clear();
        let err = a.load_state_dict(&missing).unwrap_err();
        assert!(matches!(err, LoadError::BufferCountMismatch { .. }));
        assert_eq!(a.state_dict(), before);
    }
}
