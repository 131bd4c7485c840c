//! Offline stand-in for `parking_lot`: declared in the workspace manifests, imported by no source file.
