//! No-op `Serialize` / `Deserialize` derives.
//!
//! The repository derives the serde traits on ten types but never
//! serializes through them (no serializer crate is a dependency), so the
//! derives may expand to nothing. `attributes(serde)` keeps `#[serde(..)]`
//! field attributes legal.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
