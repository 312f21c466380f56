//! Devices under test — the paper's Table 3.
//!
//! The chip alone does not determine measured behaviour: the M1 and M3 are
//! tested in passively cooled MacBook Airs while the M2 and M4 sit in
//! actively cooled Mac minis, which §7 links to the observed power
//! differences. A [`DeviceModel`] is a chip + enclosure + memory config +
//! OS version.

use crate::chip::ChipGeneration;
use crate::error::SocError;
use crate::thermal::{CoolingKind, ThermalModel};
use std::fmt;

/// Enclosure form factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormFactor {
    /// Fanless laptop.
    MacBookAir,
    /// Small desktop.
    MacMini,
}

impl FormFactor {
    /// Marketing name.
    pub const fn name(&self) -> &'static str {
        match self {
            FormFactor::MacBookAir => "MacBook Air",
            FormFactor::MacMini => "Mac mini",
        }
    }
}

/// One device under test (a Table 3 column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceModel {
    /// Which chip the device carries.
    pub chip: ChipGeneration,
    /// Enclosure.
    pub form_factor: FormFactor,
    /// Release year (Table 3 "Release").
    pub release_year: u16,
    /// Installed unified memory, GiB (Table 3 "Memory").
    pub memory_gb: u32,
    /// Cooling solution (Table 3 "Cooling").
    pub cooling: CoolingKind,
    /// macOS version at test time (Table 3 "MacOS").
    pub macos_version: &'static str,
}

static DEVICES: [DeviceModel; 4] = [
    DeviceModel {
        chip: ChipGeneration::M1,
        form_factor: FormFactor::MacBookAir,
        release_year: 2020,
        memory_gb: 8,
        cooling: CoolingKind::Passive,
        macos_version: "14.7.2",
    },
    DeviceModel {
        chip: ChipGeneration::M2,
        form_factor: FormFactor::MacMini,
        release_year: 2023,
        memory_gb: 16,
        cooling: CoolingKind::ActiveAir,
        macos_version: "15.1.1",
    },
    DeviceModel {
        chip: ChipGeneration::M3,
        form_factor: FormFactor::MacBookAir,
        release_year: 2024,
        memory_gb: 16,
        cooling: CoolingKind::Passive,
        macos_version: "15.2",
    },
    DeviceModel {
        chip: ChipGeneration::M4,
        form_factor: FormFactor::MacMini,
        release_year: 2024,
        memory_gb: 16,
        cooling: CoolingKind::ActiveAir,
        macos_version: "15.1.1",
    },
];

impl DeviceModel {
    /// The Table 3 device for a chip generation.
    pub fn of(chip: ChipGeneration) -> &'static DeviceModel {
        match chip {
            ChipGeneration::M1 => &DEVICES[0],
            ChipGeneration::M2 => &DEVICES[1],
            ChipGeneration::M3 => &DEVICES[2],
            ChipGeneration::M4 => &DEVICES[3],
        }
    }

    /// All four devices in chip order.
    pub fn all() -> &'static [DeviceModel; 4] {
        &DEVICES
    }

    /// Look up by form-factor name + chip name, e.g. `("Mac mini", "M4")`.
    pub fn lookup(form: &str, chip: &str) -> Result<&'static DeviceModel, SocError> {
        let chip = ChipGeneration::parse(chip)?;
        let device = DeviceModel::of(chip);
        if device.form_factor.name().eq_ignore_ascii_case(form.trim()) {
            Ok(device)
        } else {
            Err(SocError::UnknownDevice(format!("{form} ({chip})")))
        }
    }

    /// Fresh thermal model for this enclosure.
    pub fn thermal_model(&self) -> ThermalModel {
        ThermalModel::new(self.cooling)
    }

    /// Whether this is one of the paper's laptop (passively cooled) devices.
    pub fn is_laptop(&self) -> bool {
        matches!(self.form_factor, FormFactor::MacBookAir)
    }
}

impl fmt::Display for DeviceModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} GB, {}, macOS {})",
            self.form_factor.name(),
            self.chip,
            self.memory_gb,
            self.cooling.label(),
            self.macos_version,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_devices() {
        let m1 = DeviceModel::of(ChipGeneration::M1);
        assert_eq!(m1.form_factor, FormFactor::MacBookAir);
        assert_eq!(m1.release_year, 2020);
        assert_eq!(m1.memory_gb, 8);
        assert_eq!(m1.cooling, CoolingKind::Passive);
        assert_eq!(m1.macos_version, "14.7.2");

        let m2 = DeviceModel::of(ChipGeneration::M2);
        assert_eq!(m2.form_factor, FormFactor::MacMini);
        assert_eq!(m2.release_year, 2023);
        assert_eq!(m2.cooling, CoolingKind::ActiveAir);

        let m3 = DeviceModel::of(ChipGeneration::M3);
        assert_eq!(m3.form_factor, FormFactor::MacBookAir);
        assert_eq!(m3.release_year, 2024);
        assert_eq!(m3.macos_version, "15.2");

        let m4 = DeviceModel::of(ChipGeneration::M4);
        assert_eq!(m4.form_factor, FormFactor::MacMini);
        assert_eq!(m4.release_year, 2024);
        assert_eq!(m4.macos_version, "15.1.1");
    }

    #[test]
    fn laptops_are_m1_and_m3() {
        let laptops: Vec<ChipGeneration> = DeviceModel::all()
            .iter()
            .filter(|d| d.is_laptop())
            .map(|d| d.chip)
            .collect();
        assert_eq!(laptops, vec![ChipGeneration::M1, ChipGeneration::M3]);
    }

    #[test]
    fn lookup_matches_form_and_chip() {
        let d = DeviceModel::lookup("Mac mini", "M4").unwrap();
        assert_eq!(d.chip, ChipGeneration::M4);
        assert!(DeviceModel::lookup("MacBook Air", "M4").is_err());
        assert!(DeviceModel::lookup("Mac mini", "M17").is_err());
        // Case-insensitive on both parts.
        assert!(DeviceModel::lookup("mac MINI", "m2").is_ok());
    }

    #[test]
    fn thermal_model_matches_cooling() {
        let m1 = DeviceModel::of(ChipGeneration::M1).thermal_model();
        let m2 = DeviceModel::of(ChipGeneration::M2).thermal_model();
        assert!(m1.sustained_watts() < m2.sustained_watts());
    }

    #[test]
    fn display_reads_like_table3() {
        let s = DeviceModel::of(ChipGeneration::M2).to_string();
        assert!(s.contains("Mac mini"));
        assert!(s.contains("M2"));
        assert!(s.contains("16 GB"));
        assert!(s.contains("15.1.1"));
    }
}
