//! Serialisers for the numeric workspace types, plus the [`ModelState`]
//! bag that model `export_params`/`import_params` implementations use.

use rgae_autodiff::AdamState;
use rgae_linalg::{Csr, Mat};

use crate::codec::{ByteReader, ByteWriter, Error, Result};

/// Encode a dense matrix (shape + row-major values).
pub fn put_mat(w: &mut ByteWriter, m: &Mat) {
    w.put_usize(m.rows());
    w.put_usize(m.cols());
    for &x in m.as_slice() {
        w.put_f64(x);
    }
}

/// Decode a dense matrix.
pub fn get_mat(r: &mut ByteReader) -> Result<Mat> {
    let rows = r.get_usize()?;
    let cols = r.get_usize()?;
    let n = rows
        .checked_mul(cols)
        .ok_or(Error::Corrupt("matrix shape overflow"))?;
    if n.saturating_mul(8) > r.remaining() {
        return Err(Error::Corrupt("matrix larger than buffer"));
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(r.get_f64()?);
    }
    Mat::from_vec(rows, cols, data).map_err(|_| Error::Corrupt("matrix construction failed"))
}

/// Encode a sparse matrix (shape + raw CSR arrays).
pub fn put_csr(w: &mut ByteWriter, m: &Csr) {
    w.put_usize(m.rows());
    w.put_usize(m.cols());
    w.put_usizes(m.indptr());
    w.put_usizes(m.indices());
    w.put_f64s(m.values());
}

/// Decode a sparse matrix, re-validating every CSR invariant.
pub fn get_csr(r: &mut ByteReader) -> Result<Csr> {
    let rows = r.get_usize()?;
    let cols = r.get_usize()?;
    let indptr = r.get_usizes()?;
    let indices = r.get_usizes()?;
    let data = r.get_f64s()?;
    Csr::from_raw(rows, cols, indptr, indices, data)
        .map_err(|_| Error::Corrupt("invalid CSR payload"))
}

/// Encode Adam optimiser state (timestep + moment buffers).
pub fn put_adam(w: &mut ByteWriter, st: &AdamState) {
    w.put_u64(st.t);
    w.put_usize(st.m.len());
    for m in &st.m {
        put_mat(w, m);
    }
    w.put_usize(st.v.len());
    for v in &st.v {
        put_mat(w, v);
    }
}

/// Decode Adam optimiser state.
pub fn get_adam(r: &mut ByteReader) -> Result<AdamState> {
    let t = r.get_u64()?;
    let nm = r.get_len(16)?;
    let mut m = Vec::with_capacity(nm);
    for _ in 0..nm {
        m.push(get_mat(r)?);
    }
    let nv = r.get_len(16)?;
    let mut v = Vec::with_capacity(nv);
    for _ in 0..nv {
        v.push(get_mat(r)?);
    }
    if m.len() != v.len() {
        return Err(Error::Corrupt("adam m/v slot count mismatch"));
    }
    Ok(AdamState { t, m, v })
}

/// A named bag of model parameters: everything a `GaeModel` needs to rebuild
/// its learned state. Entries are keyed by short stable names ("enc0",
/// "centroids", …) so import can shape-check each one and reject state saved
/// by a different architecture.
#[derive(Clone, Debug, Default)]
pub struct ModelState {
    /// Model name as reported by `GaeModel::name()`; checked on import.
    pub name: String,
    mats: Vec<(String, Mat)>,
    vecs: Vec<(String, Vec<f64>)>,
    nums: Vec<(String, f64)>,
    flags: Vec<(String, bool)>,
    adams: Vec<(String, AdamState)>,
}

impl ModelState {
    /// Empty state for the named model.
    pub fn new(name: &str) -> Self {
        ModelState {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Add a named matrix.
    pub fn push_mat(&mut self, key: &str, m: Mat) {
        self.mats.push((key.to_string(), m));
    }

    /// Add a named f64 vector.
    pub fn push_vec(&mut self, key: &str, v: Vec<f64>) {
        self.vecs.push((key.to_string(), v));
    }

    /// Add a named scalar.
    pub fn push_num(&mut self, key: &str, x: f64) {
        self.nums.push((key.to_string(), x));
    }

    /// Add a named flag.
    pub fn push_flag(&mut self, key: &str, b: bool) {
        self.flags.push((key.to_string(), b));
    }

    /// Add a named optimiser state.
    pub fn push_adam(&mut self, key: &str, st: AdamState) {
        self.adams.push((key.to_string(), st));
    }

    /// Look up a matrix by key.
    pub fn mat(&self, key: &str) -> Option<&Mat> {
        self.mats.iter().find(|(k, _)| k == key).map(|(_, m)| m)
    }

    /// Look up a vector by key.
    pub fn vec(&self, key: &str) -> Option<&Vec<f64>> {
        self.vecs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Look up a scalar by key.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.nums.iter().find(|(k, _)| k == key).map(|&(_, x)| x)
    }

    /// Look up a flag by key.
    pub fn flag(&self, key: &str) -> Option<bool> {
        self.flags.iter().find(|(k, _)| k == key).map(|&(_, b)| b)
    }

    /// Look up an optimiser state by key.
    pub fn adam(&self, key: &str) -> Option<&AdamState> {
        self.adams.iter().find(|(k, _)| k == key).map(|(_, a)| a)
    }

    /// `true` when every stored numeric value — matrices, vectors, scalars,
    /// and optimiser moment buffers — is finite. The guard layer runs this
    /// over each epoch's exported state; one NaN anywhere fails the scan.
    pub fn all_finite(&self) -> bool {
        let mat_ok = |m: &Mat| m.as_slice().iter().all(|x| x.is_finite());
        self.mats.iter().all(|(_, m)| mat_ok(m))
            && self
                .vecs
                .iter()
                .all(|(_, v)| v.iter().all(|x| x.is_finite()))
            && self.nums.iter().all(|(_, x)| x.is_finite())
            && self
                .adams
                .iter()
                .all(|(_, a)| a.m.iter().all(mat_ok) && a.v.iter().all(mat_ok))
    }

    /// Serialise into a writer.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.name);
        w.put_usize(self.mats.len());
        for (k, m) in &self.mats {
            w.put_str(k);
            put_mat(w, m);
        }
        w.put_usize(self.vecs.len());
        for (k, v) in &self.vecs {
            w.put_str(k);
            w.put_f64s(v);
        }
        w.put_usize(self.nums.len());
        for (k, x) in &self.nums {
            w.put_str(k);
            w.put_f64(*x);
        }
        w.put_usize(self.flags.len());
        for (k, b) in &self.flags {
            w.put_str(k);
            w.put_bool(*b);
        }
        w.put_usize(self.adams.len());
        for (k, a) in &self.adams {
            w.put_str(k);
            put_adam(w, a);
        }
    }

    /// Deserialise from a reader.
    pub fn decode(r: &mut ByteReader) -> Result<Self> {
        let name = r.get_str()?;
        let mut st = ModelState::new(&name);
        let n = r.get_len(16)?;
        for _ in 0..n {
            let k = r.get_str()?;
            let m = get_mat(r)?;
            st.mats.push((k, m));
        }
        let n = r.get_len(8)?;
        for _ in 0..n {
            let k = r.get_str()?;
            let v = r.get_f64s()?;
            st.vecs.push((k, v));
        }
        let n = r.get_len(8)?;
        for _ in 0..n {
            let k = r.get_str()?;
            let x = r.get_f64()?;
            st.nums.push((k, x));
        }
        let n = r.get_len(2)?;
        for _ in 0..n {
            let k = r.get_str()?;
            let b = r.get_bool()?;
            st.flags.push((k, b));
        }
        let n = r.get_len(8)?;
        for _ in 0..n {
            let k = r.get_str()?;
            let a = get_adam(r)?;
            st.adams.push((k, a));
        }
        Ok(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mat_round_trip_is_bit_exact() {
        let m = Mat::from_vec(2, 3, vec![1.0, -0.0, f64::MIN_POSITIVE, 3.5, 1e300, -7.25]).unwrap();
        let mut w = ByteWriter::new();
        put_mat(&mut w, &m);
        let bytes = w.into_bytes();
        let back = get_mat(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.shape(), m.shape());
        for (a, b) in back.as_slice().iter().zip(m.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn all_finite_catches_nan_in_every_field_kind() {
        let clean = || {
            let mut st = ModelState::new("gae");
            st.push_mat("w", Mat::full(2, 2, 0.5));
            st.push_vec("bias", vec![1.0, -2.0]);
            st.push_num("tau", 0.25);
            st.push_flag("init", true);
            st.push_adam(
                "opt",
                AdamState {
                    t: 3,
                    m: vec![Mat::full(2, 2, 0.1)],
                    v: vec![Mat::full(2, 2, 0.01)],
                },
            );
            st
        };
        assert!(clean().all_finite());

        let mut st = clean();
        st.push_mat("bad", Mat::full(1, 1, f64::NAN));
        assert!(!st.all_finite());

        let mut st = clean();
        st.push_vec("bad", vec![f64::INFINITY]);
        assert!(!st.all_finite());

        let mut st = clean();
        st.push_num("bad", f64::NEG_INFINITY);
        assert!(!st.all_finite());

        let mut st = clean();
        st.push_adam(
            "bad",
            AdamState {
                t: 1,
                m: vec![Mat::full(1, 1, f64::NAN)],
                v: vec![Mat::full(1, 1, 0.0)],
            },
        );
        assert!(!st.all_finite());
    }

    #[test]
    fn csr_round_trip() {
        let a = Csr::adjacency_from_edges(5, &[(0, 1), (1, 2), (3, 4), (0, 4)]).unwrap();
        let mut w = ByteWriter::new();
        put_csr(&mut w, &a);
        let bytes = w.into_bytes();
        let back = get_csr(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn csr_decode_validates_invariants() {
        // Hand-craft a payload whose indices are out of range.
        let mut w = ByteWriter::new();
        w.put_usize(2); // rows
        w.put_usize(2); // cols
        w.put_usizes(&[0, 1, 1]); // indptr
        w.put_usizes(&[5]); // column 5 in a 2-col matrix
        w.put_f64s(&[1.0]);
        let bytes = w.into_bytes();
        assert!(matches!(
            get_csr(&mut ByteReader::new(&bytes)),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn adam_round_trip() {
        let st = AdamState {
            t: 17,
            m: vec![Mat::full(2, 2, 0.25), Mat::full(1, 3, -1.5)],
            v: vec![Mat::full(2, 2, 0.5), Mat::full(1, 3, 2.0)],
        };
        let mut w = ByteWriter::new();
        put_adam(&mut w, &st);
        let bytes = w.into_bytes();
        let back = get_adam(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back, st);
    }

    #[test]
    fn model_state_round_trip() {
        let mut st = ModelState::new("gmm-vgae");
        st.push_mat("enc0", Mat::full(3, 2, 1.0));
        st.push_mat("mix_means", Mat::full(2, 2, 0.5));
        st.push_vec("mix_weights", vec![0.5, 0.5]);
        st.push_num("cluster_weight", 0.35);
        st.push_flag("heads_ready", true);
        st.push_adam(
            "opt",
            AdamState {
                t: 3,
                m: vec![Mat::zeros(3, 2)],
                v: vec![Mat::zeros(3, 2)],
            },
        );
        let mut w = ByteWriter::new();
        st.encode(&mut w);
        let bytes = w.into_bytes();
        let back = ModelState::decode(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.name, "gmm-vgae");
        assert_eq!(back.mat("enc0").unwrap().shape(), (3, 2));
        assert_eq!(back.vec("mix_weights").unwrap(), &vec![0.5, 0.5]);
        assert_eq!(back.num("cluster_weight"), Some(0.35));
        assert_eq!(back.flag("heads_ready"), Some(true));
        assert_eq!(back.adam("opt").unwrap().t, 3);
        assert!(back.mat("nonexistent").is_none());
    }
}
