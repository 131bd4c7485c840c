//! No-op `Serialize`/`Deserialize` derives that accept `#[serde(..)]`.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_: TokenStream) -> TokenStream {
    TokenStream::new()
}
