//! The damage matrix of a sealed artifact file, written once for every
//! artifact that travels through `save` / `load`: the model, the
//! checkpoint, the two shortlist views and (from `neutraj-serve`'s
//! persistence suite, which includes this file) the serving snapshot.
//!
//! Each case damages the byte image the artifact's own `save` wrote,
//! writes it to a scratch file and hands that file to the artifact's own
//! `load` — the path production runs. A damaged file must come back as a
//! typed `PersistError`: never a panic, never a loaded artifact whose
//! bytes differ from what was saved.

use neutraj_model::persist::{open_payload, seal_payload};
use neutraj_model::PersistError;
use neutraj_trajectory::rng::cases;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

type SaveFn = Box<dyn Fn(&Path) -> Result<(), PersistError> + Send + Sync>;
type LoadFn = Box<dyn Fn(&Path) -> Result<Vec<u8>, PersistError> + Send + Sync>;

/// One artifact under test: its `save`, its `load` (reduced to the
/// payload bytes of what it loaded), and the file image `save` wrote.
pub struct Sealed {
    /// What failure messages call the artifact.
    name: &'static str,
    /// The file `save` wrote: envelope around the payload.
    pub image: Vec<u8>,
    /// The payload bytes an intact load must give back.
    pub expected: Vec<u8>,
    save: SaveFn,
    load: LoadFn,
}

impl Sealed {
    /// Saves once to a scratch file to take the image. `expected` is the
    /// saved artifact's `to_bytes`.
    pub fn new(
        name: &'static str,
        expected: Vec<u8>,
        save: impl Fn(&Path) -> Result<(), PersistError> + Send + Sync + 'static,
        load: impl Fn(&Path) -> Result<Vec<u8>, PersistError> + Send + Sync + 'static,
    ) -> Sealed {
        let path = scratch_path(name);
        save(&path).expect("the intact artifact saves");
        let image = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        Sealed {
            name,
            image,
            expected,
            save: Box::new(save),
            load: Box::new(load),
        }
    }

    /// `load` of a scratch file holding `bytes`.
    pub fn load_image(&self, bytes: &[u8]) -> Result<Vec<u8>, PersistError> {
        let path = scratch_path(self.name);
        std::fs::write(&path, bytes).unwrap();
        let res = (self.load)(&path);
        std::fs::remove_file(&path).ok();
        res
    }

    /// The payload inside the intact image.
    pub fn payload(&self) -> &[u8] {
        open_payload(&self.image).expect("the intact image opens")
    }
}

/// A path no other case uses: per process, per call.
pub fn scratch_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("neutraj-damage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tag = tag.replace(' ', "-");
    dir.join(format!("{tag}-{}", SEQ.fetch_add(1, Ordering::Relaxed)))
}

/// The intact image loads, and what loads is bit for bit what was saved;
/// saved again, it writes the same image.
pub fn intact_roundtrips(a: &Sealed) {
    let loaded = a.load_image(&a.image).expect("the intact file loads");
    assert_eq!(loaded, a.expected, "{} changed across save/load", a.name);
    let path = scratch_path(a.name);
    (a.save)(&path).unwrap();
    let again = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(again, a.image, "{} saved twice, two images", a.name);
}

/// Any one flipped bit — envelope, payload or checksum — is rejected.
pub fn bit_flips_are_rejected(a: &Sealed, n: u64) {
    cases(n, |rng| {
        let offset = rng.gen_range(0usize..1 << 20) % a.image.len();
        let bit = rng.gen_range(0u8..8);
        let mut bytes = a.image.clone();
        bytes[offset] ^= 1 << bit;
        assert!(
            a.load_image(&bytes).is_err(),
            "bit {bit} of byte {offset} flipped, {} file still loaded",
            a.name
        );
    });
}

/// Every strict prefix of the file — a torn write cut at any byte — is
/// rejected as corrupted by the size check.
pub fn every_truncation_is_rejected(a: &Sealed) {
    for len in 0..a.image.len() {
        match a.load_image(&a.image[..len]) {
            Err(PersistError::Corrupted(_)) => {}
            other => panic!(
                "{} file cut to {len} bytes: {:?}",
                a.name,
                other.map(|b| b.len())
            ),
        }
    }
}

/// Bytes appended after the checksum change the size: rejected.
pub fn trailing_garbage_is_rejected(a: &Sealed, n: u64) {
    cases(n, |rng| {
        let mut bytes = a.image.clone();
        let extra = rng.gen_range(1usize..64);
        bytes.extend((0..extra).map(|_| rng.gen_range(0u8..=255)));
        assert!(
            matches!(a.load_image(&bytes), Err(PersistError::Corrupted(_))),
            "{extra} trailing bytes after a {} file still loaded",
            a.name
        );
    });
}

/// A file holding only the payload — the envelope, and with it the
/// checksum, stripped — is refused: nothing unchecksummed is parsed.
pub fn stripped_envelope_is_rejected(a: &Sealed) {
    let res = a.load_image(a.payload());
    assert!(
        matches!(res, Err(PersistError::Format(_))),
        "a bare {} payload: {:?}",
        a.name,
        res.map(|b| b.len())
    );
}

/// Damage below the envelope, resealed in a valid one, reaches the
/// artifact's decoder: it must reject or accept, never panic.
pub fn resealed_payload_damage_never_panics(a: &Sealed, n: u64) {
    cases(n, |rng| {
        let mut payload = a.payload().to_vec();
        let offset = rng.gen_range(0usize..1 << 20) % payload.len();
        payload[offset] ^= 1 << rng.gen_range(0u8..8);
        payload.truncate(1 + rng.gen_range(0usize..1 << 20) % payload.len());
        let _ = a.load_image(&seal_payload(&payload));
    });
}

/// A flip and a cut in one pass: the only acceptable `Ok` is the
/// undamaged identity case, and then the bytes must match exactly.
pub fn combined_damage_never_loads_altered_bytes(a: &Sealed, n: u64) {
    cases(n, |rng| {
        let offset = rng.gen_range(0usize..1 << 20) % a.image.len();
        let bit = rng.gen_range(0u8..8);
        let cut = 1 + rng.gen_range(0usize..1 << 20) % a.image.len();
        let mut bytes = a.image.clone();
        bytes[offset] ^= 1 << bit;
        bytes.truncate(cut);
        if let Ok(loaded) = a.load_image(&bytes) {
            assert_eq!(bytes, a.image, "a damaged {} file loaded", a.name);
            assert_eq!(loaded, a.expected);
        }
    });
}

/// A correctly sealed, CRC-valid `payload` the decoder must refuse as
/// ill-formed.
pub fn sealed_payload_is_rejected(a: &Sealed, payload: &[u8], what: &str) {
    let res = a.load_image(&seal_payload(payload));
    assert!(
        matches!(res, Err(PersistError::Format(_))),
        "{} with {what}: {:?}",
        a.name,
        res.map(|b| b.len())
    );
}

/// A save whose write cannot start — its directory is missing — is an
/// I/O error and leaves no file behind, temp file included.
pub fn a_save_into_a_missing_directory_is_an_io_error(a: &Sealed) {
    let dir = scratch_path(a.name);
    std::fs::create_dir_all(&dir).unwrap();
    let res = (a.save)(&dir.join("absent").join("file"));
    assert!(matches!(res, Err(PersistError::Io(_))), "{}", a.name);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{}", a.name);
    std::fs::remove_dir(&dir).unwrap();
}
